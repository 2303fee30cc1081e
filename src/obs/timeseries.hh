/**
 * @file
 * Bounded per-tier time series of interval samples.
 *
 * The store is the time dimension the end-of-run aggregates lack: one
 * Series per tier (plus the "e2e" end-to-end series), each a bounded
 * ring of IntervalSample rows produced once per sampling interval by
 * the obs Pipeline. A run that degrades in its last 10% and a run that
 * was slow throughout produce the same run-level histogram but very
 * different series — which is exactly the signal the SloMonitor and
 * CulpritLocalizer consume.
 *
 * The store itself is passive and deterministic: plain data keyed by
 * sorted tier name, no clocks, no callbacks. All sampling policy lives
 * in the Pipeline.
 */

#ifndef UQSIM_OBS_TIMESERIES_HH
#define UQSIM_OBS_TIMESERIES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hh"

namespace uqsim::obs {

/** The reserved series name of the end-to-end request stream. */
inline const char *kEndToEndSeries = "e2e";

/** One tier's signals over one sampling interval [start, end). */
struct IntervalSample
{
    Tick start = 0;
    Tick end = 0;

    /** Requests finishing in the interval (tier: served; e2e: ok). */
    std::uint64_t count = 0;
    /** Requests failing in the interval (tier: failed; e2e: failed+dropped). */
    std::uint64_t errors = 0;
    /** Admission refusals (throttled/shed/overflow) at this tier. */
    std::uint64_t admissionRejects = 0;
    /** Keyed-cache lookups (0 for non-cache tiers and e2e). */
    std::uint64_t cacheLookups = 0;
    /** Stale replicated reads served (0 on unreplicated tiers). */
    std::uint64_t staleReads = 0;
    /** Typed quorum-lost rejects (writes + reads) at this tier. */
    std::uint64_t quorumLost = 0;
    /** 2PC transactions aborted with this tier as a participant. */
    std::uint64_t txnAborts = 0;

    /** Finishing requests (count + errors) per second. */
    double rps = 0.0;
    /** errors / (count + errors), 0 with no traffic. */
    double errorRate = 0.0;
    /** Mean queue depth across active instances at the boundary. */
    double queueDepth = 0.0;
    /** Mean in-flight RPCs across active instances at the boundary. */
    double inFlight = 0.0;
    /**
     * Mean worker-thread occupancy (busy or blocked) across active
     * instances at the boundary, in [0,1]: the autoscaler's signal.
     */
    double occupancy = 0.0;
    /** Busy-time delta over capacity (interval * threads), in [0,1]. */
    double utilization = 0.0;
    /** Keyed-cache hit ratio over the interval (0 without lookups). */
    double hitRatio = 0.0;
    /**
     * Worst replica-group staleness bound at the boundary (ns): the
     * election gap while a group is leaderless, else the worst
     * eligible-follower apply lag. 0 on unreplicated tiers.
     */
    double replicaLagNs = 0.0;

    /** Latency over the interval, from the per-tier sketch (ns). */
    double meanLatencyNs = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
};

/**
 * A bounded ring of interval samples for one tier.
 */
class Series
{
  public:
    Series(std::string name, std::size_t capacity);

    const std::string &name() const { return name_; }

    /** Append one sample, evicting the oldest at capacity. */
    void append(const IntervalSample &s);

    /** Samples currently retained. */
    std::size_t size() const { return size_; }

    /** Samples appended over the series' lifetime. */
    std::uint64_t total() const { return total_; }

    /** Samples evicted by the ring bound. */
    std::uint64_t evicted() const { return total_ - size_; }

    /** Retained sample @p i, oldest first (0 <= i < size()). */
    const IntervalSample &at(std::size_t i) const;

    /** The most recent sample (fatal when empty). */
    const IntervalSample &latest() const;

  private:
    std::string name_;
    std::vector<IntervalSample> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0; ///< next write position
    std::size_t size_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * All series of one app, keyed by tier name (sorted, deterministic).
 */
class TimeSeriesStore
{
  public:
    /**
     * @param interval sampling period (ticks)
     * @param capacity ring bound per series (samples)
     */
    TimeSeriesStore(Tick interval, std::size_t capacity);

    Tick interval() const { return interval_; }
    std::size_t capacity() const { return capacity_; }

    /** Get-or-create the series for @p name. */
    Series &series(const std::string &name);

    /** Series for @p name, or null if never written. */
    const Series *find(const std::string &name) const;

    /** Series names in sorted order. */
    std::vector<std::string> names() const;

    /** Sampling boundaries recorded so far. */
    std::uint64_t intervalsSampled() const { return intervals_; }
    void noteIntervalSampled() { ++intervals_; }

  private:
    Tick interval_;
    std::size_t capacity_;
    std::uint64_t intervals_ = 0;
    std::map<std::string, std::unique_ptr<Series>> series_;
};

} // namespace uqsim::obs

#endif // UQSIM_OBS_TIMESERIES_HH
