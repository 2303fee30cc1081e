/**
 * @file
 * Server-side admission control with weighted QoS classes.
 *
 * The paper's Fig 19 shows the defining overload failure of
 * microservice graphs: once one tier saturates, queues grow without
 * bound, every request waits past its deadline and goodput collapses
 * instead of degrading. The client-side resilience layer (rpc/
 * resilience.hh) can reproduce that collapse but not the cure, because
 * services themselves accept every arrival. This module supplies the
 * server side: each instance gets a bounded per-class request queue
 * with weighted dequeue, a token-bucket throughput throttler, and
 * cost-based shedding that refuses cheap-to-refuse work at the door —
 * before it consumes service time.
 *
 * Requests are partitioned into three QoS classes (user-facing /
 * batch / best-effort) derived from their query type. Under overload
 * the controller sacrifices the classes in reverse priority order:
 * best-effort is refused first (lowest shed threshold, largest token
 * reserve), then batch, and user-facing work keeps most of the
 * capacity — graceful degradation instead of the cliff.
 *
 * Like the resilience layer, everything here is passive state advanced
 * lazily from the caller's clock: no object schedules simulator
 * events, decisions draw no randomness, and a disabled policy is never
 * consulted — so the legacy execution digest is preserved bit-for-bit
 * and enabled runs stay deterministic at any shard/thread count.
 */

#ifndef UQSIM_SERVICE_ADMISSION_HH
#define UQSIM_SERVICE_ADMISSION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ring.hh"
#include "core/types.hh"

namespace uqsim::service {

/**
 * Priority class of a request, derived from its query type. Order is
 * priority order: lower value = more important = refused last.
 */
enum class QosClass : std::uint8_t
{
    UserFacing = 0, ///< interactive traffic; shed only as a last resort
    Batch = 1,      ///< throughput work (feeds, analytics)
    BestEffort = 2, ///< prefetch/speculative; first against the wall
};

constexpr unsigned kQosClassCount = 3;

/** @return a short printable class name ("user-facing", ...). */
const char *qosClassName(QosClass c);

/** Resolve a class name; @return false if unknown. */
bool qosClassByName(const std::string &name, QosClass &out);

/**
 * Per-service admission policy (set on the ServiceDef, like the
 * protocol and the resilience policy). All defaults off: a ServiceDef
 * without an explicit policy keeps the legacy single-FIFO queue.
 */
struct AdmissionPolicy
{
    /** Master switch; nothing below is consulted while false. */
    bool enabled = false;

    /**
     * Weighted-round-robin dequeue credits per class. Per grant cycle
     * a backlogged class gets weights[c] of every
     * sum(weights-of-backlogged-classes) service slots.
     */
    std::array<unsigned, kQosClassCount> weights = {8, 2, 1};

    /**
     * Bounded per-class queue depth (0 = inherit the tier's
     * queueCapacity). Arrivals beyond the bound are refused with
     * Overflow — the hard backstop behind the shed thresholds.
     */
    unsigned classQueueCapacity = 0;

    /**
     * Token-bucket throughput throttle: admitted requests per second
     * per instance (0 = unlimited). Tokens refill lazily from the
     * arrival clock; every admitted request consumes one.
     */
    double ratePerInstance = 0.0;

    /** Token-bucket burst capacity (tokens). */
    double burst = 32.0;

    /**
     * Cost-based shed thresholds, as fractions of the per-class queue
     * bound applied to the *aggregate* backlog: class c is refused
     * with Shed once total queued work reaches shedAt[c] * bound.
     * Refusing at the door costs only the reply path, so the classes
     * whose refusal is cheapest (lowest priority, no retry pressure)
     * go first: best-effort at 25% backlog, batch at 50%, user-facing
     * only when the backlog reaches the full bound.
     */
    std::array<double, kQosClassCount> shedAt = {1.0, 0.5, 0.25};

    bool active() const { return enabled; }
};

/**
 * App-level QoS configuration: the policy applied to every tier plus
 * the query-type -> class assignment (query types not named in either
 * list stay user-facing).
 */
struct QosConfig
{
    AdmissionPolicy policy;
    std::vector<std::string> batchQueries;
    std::vector<std::string> bestEffortQueries;
};

/**
 * Deterministic token bucket, refilled lazily from the caller's clock
 * (never schedules events — same discipline as rpc::CircuitBreaker).
 */
class TokenBucket
{
  public:
    /** @p rate_per_sec tokens/s, clamped at @p burst. Starts full. */
    TokenBucket(double rate_per_sec, double burst);

    /** @return true while no rate is configured (always admits). */
    bool unlimited() const { return ratePerTick_ <= 0.0; }

    /** Tokens available at @p now (refills first). */
    double available(Tick now);

    /**
     * Admit one request at @p now if at least @p reserve tokens are
     * available; consumes exactly one token on success. A reserve
     * above 1.0 leaves headroom for higher-priority classes — the
     * priority mechanism of the throttler.
     */
    bool tryAcquire(Tick now, double reserve);

    /** Refit to a fresh process (restart): full bucket at @p now. */
    void reset(Tick now);

  private:
    void refill(Tick now);

    double ratePerTick_;
    double burst_;
    double tokens_;
    Tick last_ = 0;
};

/**
 * Token reserve a class must see before the throttler admits it:
 * user-facing takes the last token, batch keeps 25% of the burst in
 * reserve, best-effort 50%. Under sustained overload the bucket hovers
 * near empty, so low-priority classes are throttled first and the
 * reserved headroom is what keeps user-facing traffic flowing.
 */
double qosTokenReserve(const AdmissionPolicy &pol, QosClass c);

/** Outcome of one admission decision. */
enum class AdmissionVerdict : std::uint8_t
{
    Admit = 0,
    Throttled, ///< token bucket dry (for this class's reserve)
    Shed,      ///< backlog above the class's shed threshold
    Overflow,  ///< per-class queue bound reached
};

/**
 * Per-instance bounded multi-class queue with weighted-round-robin
 * dequeue. Header-only template so the instance's private Arrival
 * record can be stored without a dependency cycle; the closed-form
 * tests instantiate it with plain timestamps.
 *
 * Determinism: offer()/pop() are pure state machines over the caller's
 * clock — WRR credits instead of randomized selection, lazy bucket
 * refill instead of timer events.
 */
template <typename Item>
class AdmissionQueue
{
  public:
    /**
     * @p fallback_capacity is the tier's queueCapacity, used when the
     * policy does not bound classes explicitly. @p now seeds the token
     * bucket clock.
     */
    AdmissionQueue(const AdmissionPolicy &pol, unsigned fallback_capacity,
                   Tick now)
        : pol_(pol),
          capacity_(pol.classQueueCapacity ? pol.classQueueCapacity
                                           : fallback_capacity),
          bucket_(pol.ratePerInstance, pol.burst)
    {
        bucket_.reset(now);
    }

    /**
     * Decide admission for one class-@p c arrival at @p now: the
     * throttler first, then the hard per-class bound, then the
     * cost-based shed thresholds (aggregate backlog vs the class's
     * fraction of the bound — the check that fires earliest for the
     * low-priority classes). Only an Admit consumes a token; the
     * caller must follow it with push().
     */
    AdmissionVerdict
    offer(QosClass c, Tick now)
    {
        const auto idx = static_cast<std::size_t>(c);
        if (!bucket_.unlimited() &&
            !bucket_.tryAcquire(now, qosTokenReserve(pol_, c)))
            return AdmissionVerdict::Throttled;
        if (q_[idx].size() >= capacity_)
            return AdmissionVerdict::Overflow;
        if (total_ >= static_cast<std::size_t>(
                          pol_.shedAt[idx] *
                          static_cast<double>(capacity_)))
            return AdmissionVerdict::Shed;
        return AdmissionVerdict::Admit;
    }

    /** Enqueue an admitted arrival. */
    void
    push(QosClass c, Item item)
    {
        q_[static_cast<std::size_t>(c)].push_back(std::move(item));
        ++total_;
    }

    /**
     * Dequeue the next item by weighted round robin: each grant cycle
     * hands every class weights[c] credits; backlogged classes are
     * scanned in priority order and spend credits first-come. With
     * lopsided weights this degenerates to strict priority, which is
     * what the closed-form priority-queue test pins down.
     * @return false when empty.
     */
    bool
    pop(QosClass &cls, Item &out)
    {
        if (total_ == 0)
            return false;
        for (;;) {
            for (std::size_t c = 0; c < kQosClassCount; ++c) {
                if (q_[c].empty() || credit_[c] == 0)
                    continue;
                --credit_[c];
                cls = static_cast<QosClass>(c);
                out = std::move(q_[c].front());
                q_[c].pop_front();
                --total_;
                return true;
            }
            // Every backlogged class is out of credit: grant a fresh
            // cycle (unused credit does not accumulate).
            for (std::size_t c = 0; c < kQosClassCount; ++c)
                credit_[c] = pol_.weights[c];
        }
    }

    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }

    /** Queued items of one class right now. */
    std::size_t
    length(QosClass c) const
    {
        return q_[static_cast<std::size_t>(c)].size();
    }

    /** Effective per-class queue bound. */
    unsigned capacity() const { return capacity_; }

    /** Drop all queued work (crash path). */
    void
    clear()
    {
        for (auto &q : q_)
            q.clear();
        total_ = 0;
    }

    /** Fresh-process state: empty queues, full bucket (restart path). */
    void
    reset(Tick now)
    {
        clear();
        credit_ = {};
        bucket_.reset(now);
    }

  private:
    AdmissionPolicy pol_;
    unsigned capacity_;
    TokenBucket bucket_;
    std::array<Ring<Item>, kQosClassCount> q_;
    std::array<unsigned, kQosClassCount> credit_{};
    std::size_t total_ = 0;
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_ADMISSION_HH
