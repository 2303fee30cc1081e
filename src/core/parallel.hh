/**
 * @file
 * The discrete-event engine: a conservative sharded simulator.
 *
 * This is the simulator's only engine. The world is partitioned into
 * shards; each shard owns its own EventQueue and clock and executes
 * strictly sequentially, so all single-threaded invariants of the
 * model hold within a shard. The default configuration — one shard, no
 * cross-shard channel, one thread — is the classic sequential
 * simulator, named `Simulator` (core/simulator.hh). Shards are
 * synchronized with a barrier-stepped conservative protocol:
 *
 *   round:  horizon = min(next event time over all shards)
 *                     + lookahead - 1
 *           every shard executes its events with time <= horizon
 *   barrier: cross-shard events buffered during the round are merged
 *            into their destination queues in deterministic
 *            (when, source shard, source sequence) order
 *
 * The lookahead is the minimum cross-shard latency (for the network
 * worlds: the minimum inter-shard wire latency); every cross-shard
 * event must be scheduled at least `lookahead` ticks in the future,
 * which is what makes executing the window [minNext, minNext+lookahead)
 * safe: nothing sent during the round can land inside it. With one
 * shard (lookahead kMaxTick) a run is one round over the whole queue.
 *
 * Determinism is by construction, independent of the thread count:
 * shard execution is sequential, rounds are a pure function of
 * simulation state, and mail merges are sorted. Per-shard FNV-1a
 * digests compose into a run digest that is order-sensitive within a
 * shard and order-insensitive (commutative) across shards; with one
 * shard the composed digest is that shard's own. See docs/PARALLEL.md.
 */

#ifndef UQSIM_CORE_PARALLEL_HH
#define UQSIM_CORE_PARALLEL_HH

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/event_queue.hh"
#include "core/sim_context.hh"
#include "core/types.hh"

namespace uqsim {

/**
 * Simulation driver: N queues, N clocks, one horizon.
 */
class ParallelSimulator
{
  public:
    struct Config
    {
        /** Number of shards (server groups with their own queue). */
        unsigned shards = 1;

        /**
         * Conservative synchronization window: the minimum cross-shard
         * event delay. kMaxTick (the default) declares that no
         * cross-shard channel exists — shards then run the whole
         * window in one round and any postToShard() is an error.
         */
        Tick lookahead = kMaxTick;

        /**
         * Threads executing shard rounds, counting the driving thread
         * (capped to the shard count). Thread t runs shards t,
         * t + threads, ...; the driver is thread 0, so 1 runs every
         * shard on the driver. The execution digest does not depend
         * on this value.
         */
        unsigned threads = 1;
    };

    /** The default configuration: one shard, no channel, one thread. */
    ParallelSimulator();
    explicit ParallelSimulator(Config config);
    ~ParallelSimulator();

    ParallelSimulator(const ParallelSimulator &) = delete;
    ParallelSimulator &operator=(const ParallelSimulator &) = delete;

    /** @return the scheduling context of shard @p shard. */
    SimContext context(unsigned shard);

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Threads actually running rounds, the driver included. */
    unsigned threads() const { return nthreads_; }

    Tick lookahead() const { return lookahead_; }

    /** @return shard @p shard's current clock. */
    Tick now(unsigned shard) const;

    /**
     * Register a periodic clock observer on @p shard: it fires at
     * every multiple of @p interval, starting at the first multiple
     * past the shard's clock, *between* events, not as one. When the
     * callback for boundary B runs, every event of the shard with
     * time < B has executed and none with time >= B has: it sees the
     * world exactly as of instant B. Observers never enter the event
     * queue, so a run with observers is digest-identical to one
     * without (the basis of the obs layer's digest guarantee).
     *
     * Observers must not schedule events or mutate model state; they
     * are a read-only sampling surface. Firing is lazy — a boundary
     * with no event at or after it yet fires as soon as one appears,
     * or at the runUntil() deadline — and deterministic: boundaries
     * fire in registration order at equal ticks. The conservative
     * protocol guarantees no later mail can land below a fired
     * boundary, so the lazily-fired sample equals an eagerly-fired one
     * and does not depend on the thread count. Register before
     * driving the engine; zero intervals are an internal error.
     */
    void addClockObserver(unsigned shard, Tick interval,
                          ClockObserverFn fn);

    /** Run until every queue and outbox drains. */
    void run();

    /**
     * Run every shard up to @p deadline (events with time <= deadline
     * fire), then set all shard clocks to @p deadline.
     */
    void runUntil(Tick deadline);

    /** runUntil(max shard clock + duration), saturating at kMaxTick. */
    void runFor(Tick duration);

    // -- Shard-0 shorthands: the one-shard `Simulator` surface ---------

    /** @return shard 0's clock. */
    Tick now() const { return shards_[0]->now; }

    /** Schedule on shard 0, @p delay ticks from now. */
    EventHandle
    schedule(Tick delay, EventCallback cb)
    {
        Shard &s = *shards_[0];
        return s.queue.schedule(s.now + delay, std::move(cb));
    }

    /** Schedule on shard 0 at @p when (the past is an error). */
    EventHandle scheduleAt(Tick when, EventCallback cb);

    /** @return shard 0's event queue (stats, tests). */
    const EventQueue &queue() const { return shards_[0]->queue; }

    /** Register a clock observer on shard 0. */
    void
    addClockObserver(Tick interval, ClockObserverFn fn)
    {
        addClockObserver(0, interval, std::move(fn));
    }

    /** Total events executed across all shards. */
    std::uint64_t eventsExecuted() const;

    /**
     * The composed run digest. One shard: that shard's FNV-1a digest
     * verbatim. N shards: a commutative mix of the per-shard digests,
     * so the value is independent of cross-shard execution
     * interleaving — and thus of the thread count — while
     * remaining order-sensitive within each shard.
     */
    std::uint64_t executionDigest() const;

    /** Shard @p shard's own order-sensitive digest. */
    std::uint64_t shardDigest(unsigned shard) const;

  private:
    friend class SimContext;

    /** One periodic clock observer (see addClockObserver). */
    struct ClockObserver
    {
        Tick interval = 0;
        Tick next = 0;
        ClockObserverFn fn;
    };

    /** One buffered cross-shard event. */
    struct Mail
    {
        unsigned dst = 0;
        unsigned src = 0;
        Tick when = 0;
        std::uint64_t seq = 0;
        EventCallback cb;
    };

    /** One shard: queue + clock + outbound mail. */
    struct Shard
    {
        EventQueue queue;
        Tick now = 0;
        /** Sequence of cross-shard sends originating here. */
        std::uint64_t mailSeq = 0;
        /** This round's cross-shard sends; only this shard's thread
         *  appends, so no lock is needed. */
        std::vector<Mail> outbox;
        /** Periodic sampling callbacks (empty on the common path). */
        std::vector<ClockObserver> observers;
        /** Earliest pending boundary (kMaxTick while none). */
        Tick nextBoundary = kMaxTick;
    };

    /** Buffer a cross-shard event (called via SimContext). */
    void postToShard(unsigned src, unsigned dst, Tick when,
                     EventCallback cb);

    /**
     * Merge every outbox into the destination queues, sorted by
     * (dst, when, src, seq). Runs on the driver between rounds.
     */
    void deliverMail();

    /**
     * Fire @p s's observer boundaries <= @p limit. The cached earliest
     * boundary keeps the idle cost at one compare.
     */
    static void fireObservers(Shard &s, Tick limit);

    /**
     * The one dispatch loop behind run() and runUntil(): execute
     * rounds until no queue holds an event at or before @p deadline.
     * It stops on emptiness, so an event at kMaxTick still runs.
     */
    void drain(Tick deadline);

    /**
     * Execute one round: every shard runs events with time <= horizon.
     * The driver runs thread 0's shards between two barrier phases.
     */
    void runRound(Tick horizon);

    /** Run thread @p thread's shards up to the round horizon. */
    void runShards(unsigned thread);

    /** Sequentially run shard @p s up to @p horizon (inclusive). */
    void runShard(Shard &s, Tick horizon);

    /** Body of worker thread @p thread (1 .. threads - 1). */
    void workerLoop(unsigned thread);

    std::vector<std::unique_ptr<Shard>> shards_;
    Tick lookahead_ = kMaxTick;
    /** deliverMail()'s merge buffer, kept to reuse its capacity. */
    std::vector<Mail> merge_;

    // -- Round threads: the driver plus threads - 1 workers ------------
    unsigned nthreads_ = 1;
    /** Every thread arrives as a round starts and as it ends; each
     *  phase publishes roundHorizon_, shutdown_ and the shards' state. */
    std::barrier<> barrier_;
    Tick roundHorizon_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

} // namespace uqsim

#endif // UQSIM_CORE_PARALLEL_HH
