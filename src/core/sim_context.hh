/**
 * @file
 * The scheduling handle every model component holds.
 *
 * A SimContext names one shard of the simulation engine
 * (ParallelSimulator, core/parallel.hh) and is the only scheduling
 * surface model code may use: components never touch the engine or an
 * EventQueue directly. The handle is a cheap value type over (event
 * queue, clock, shard id, engine). ParallelSimulator::context(i) mints
 * shard i's handle; an engine converts implicitly to its shard-0
 * handle, so drivers (tests, benches, examples) that construct
 * components with a one-shard `Simulator` (core/simulator.hh) compile
 * unchanged.
 *
 * Cross-shard communication goes through postToShard(), which enforces
 * the conservative lookahead, appends to the sending shard's outbox
 * and is delivered at the next synchronization barrier. Scheduling,
 * clock reads and posts are shard-local and take no lock, so only
 * event code running on this handle's shard may post through it. See
 * docs/PARALLEL.md.
 */

#ifndef UQSIM_CORE_SIM_CONTEXT_HH
#define UQSIM_CORE_SIM_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "core/event_queue.hh"
#include "core/types.hh"

namespace uqsim {

class ParallelSimulator;

/** Callback observing a shard's clock at one interval boundary. */
using ClockObserverFn = std::function<void(Tick boundary)>;

/**
 * Shard-addressed scheduling handle (see file comment).
 */
class SimContext
{
  public:
    /** Null handle; must be rebound before use. */
    SimContext() = default;

    /** Shard 0 of @p engine (implicit: a Simulator converts). */
    SimContext(ParallelSimulator &engine);

    /** @return the current simulated time of this shard. */
    Tick now() const { return *now_; }

    /**
     * Schedule a callback @p delay ticks from now on this shard.
     * @return a cancellation handle.
     */
    template <typename F>
    EventHandle
    schedule(Tick delay, F &&cb)
    {
        return queue_->schedule(*now_ + delay, std::forward<F>(cb));
    }

    /**
     * Schedule a callback at absolute time @p when on this shard.
     * Scheduling in the past is an internal error; the panic reports
     * the offending when/now ticks (and the shard, when sharded).
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&cb)
    {
        if (when < *now_)
            pastScheduleError(when);
        return queue_->schedule(when, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb on shard @p dst, @p delay ticks from now.
     *
     * Same-shard posts degrade to schedule(). Cross-shard posts
     * require `delay >= lookahead()` (the conservative synchronization
     * window); violating it is an internal error. Cross-shard events
     * are buffered in this shard's outbox and merged into @p dst's
     * queue at the next barrier in deterministic (when, source shard,
     * source sequence) order, so no cancellation handle is returned.
     */
    void postToShard(unsigned dst, Tick delay, EventCallback cb);

    /** @return this component's shard id (0 in single-shard worlds). */
    unsigned shard() const { return shard_; }

    /** @return the number of shards in the world. */
    unsigned shardCount() const;

    /**
     * @return the conservative lookahead: the minimum cross-shard
     * delay, i.e. the minimum inter-shard network latency. kMaxTick in
     * single-shard worlds and in sharded worlds with no cross-shard
     * channels.
     */
    Tick lookahead() const;

    /**
     * Register a periodic clock observer on this shard: @p fn fires at
     * every multiple of @p interval of this shard's clock, between
     * events rather than as one, so the execution digest is untouched
     * (see ParallelSimulator::addClockObserver). The observer must be
     * read-only over model state and must outlive all driving of the
     * world; there is no unregistration. Register before running.
     */
    void addClockObserver(Tick interval, ClockObserverFn fn);

    // -- Driver surface (top-level harnesses only, never event code) --

    /**
     * Run the *whole world* (every shard) until its queues drain.
     * Driver-only: must not be called from inside an event callback.
     */
    void run();

    /** Run the whole world up to @p deadline (clocks end there). */
    void runUntil(Tick deadline);

    /** Run the whole world @p duration past its latest shard clock. */
    void runFor(Tick duration);

    // -- Shard-local observability ------------------------------------

    /** Events executed by *this shard* so far. */
    std::uint64_t eventsExecuted() const { return queue_->executedCount(); }

    /**
     * This shard's running FNV-1a execution digest (order-sensitive
     * within the shard). The world-level digest composes these; see
     * ParallelSimulator::executionDigest().
     */
    std::uint64_t executionDigest() const
    {
        return queue_->executionDigest();
    }

    /** @return this shard's underlying event queue (stats, tests). */
    const EventQueue &queue() const { return *queue_; }

  private:
    friend class ParallelSimulator;

    /** Shard-addressed context; minted by ParallelSimulator. */
    SimContext(EventQueue &queue, const Tick &now, unsigned shard,
               ParallelSimulator &engine)
        : queue_(&queue), now_(&now), shard_(shard), engine_(&engine)
    {}

    [[noreturn]] void pastScheduleError(Tick when) const;

    EventQueue *queue_ = nullptr;
    const Tick *now_ = nullptr;
    unsigned shard_ = 0;
    ParallelSimulator *engine_ = nullptr;
};

} // namespace uqsim

#endif // UQSIM_CORE_SIM_CONTEXT_HH
