/**
 * @file
 * Measurement harness: drive an app at a fixed load and summarize, or
 * search for the maximum load sustaining QoS (the "max QPS under QoS"
 * metric of Figs 12-13 and 22).
 */

#ifndef UQSIM_WORKLOAD_LOAD_SWEEP_HH
#define UQSIM_WORKLOAD_LOAD_SWEEP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.hh"
#include "service/app.hh"
#include "workload/generators.hh"
#include "workload/user_population.hh"

namespace uqsim::workload {

/** Summary of one measured load point. */
struct LoadResult
{
    double offeredQps = 0.0;
    double achievedQps = 0.0;  ///< completions per second
    double goodputQps = 0.0;   ///< completions within QoS per second
    Tick p50 = 0;
    Tick p95 = 0;
    Tick p99 = 0;
    double meanMs = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    double meanUtilization = 0.0;  ///< cluster-average CPU utilization
    double networkShare = 0.0;     ///< mean network / (network+app) time

    /** True when the tail meets the app's QoS and drops are rare. */
    bool
    meetsQos(Tick qos, double max_drop_frac = 0.01) const
    {
        const double total =
            static_cast<double>(completed) + static_cast<double>(dropped);
        const double drop_frac =
            total > 0.0 ? static_cast<double>(dropped) / total : 0.0;
        return completed > 0 && p99 <= qos && drop_frac <= max_drop_frac;
    }
};

/** One open-loop generator of a load window. */
struct LoadSource
{
    service::App *app = nullptr;
    QueryMix mix;
    double qps = 0.0;
    std::uint64_t seed = 0;
};

/**
 * The measured load window behind runLoad() and apps::runWorld().
 * @p sources and @p apps are non-empty and share one engine.
 *
 * Starts one open-loop generator per source, in order; runs @p warmup;
 * resets the stats of every app in @p apps; runs @p measure; stops the
 * generators; and gives in-flight requests a bounded drain of
 * measure/5. A Poisson @p arrival attaches nothing (the generator's
 * own sampler); any other kind gets a stream disjoint from the
 * source's query-mix/user draws.
 *
 * End-to-end results (counts, merged latency, network share) cover
 * the sources' apps; utilization averages over @p apps; rates use the
 * arrival window only. With one source on one app every aggregate
 * degenerates exactly to that app's own numbers.
 */
LoadResult runLoadWindow(const std::vector<LoadSource> &sources,
                         const std::vector<service::App *> &apps,
                         double offered_qps, Tick warmup, Tick measure,
                         const UserPopulation &users,
                         const ArrivalConfig &arrival);

/**
 * Run @p app at @p qps for warmup+measure, return the measured-window
 * summary: runLoadWindow() with one Poisson source on @p app.
 */
LoadResult runLoad(service::App &app, double qps, Tick warmup,
                   Tick measure, const QueryMix &mix,
                   const UserPopulation &users, std::uint64_t seed);

/**
 * Bisect for the largest @p qps in [lo, hi] with feasible(qps) true.
 * @p feasible must build a *fresh* world per probe (saturation state
 * must not leak between probes). Returns lo if nothing is feasible.
 */
double findMaxQps(const std::function<bool(double)> &feasible, double lo,
                  double hi, int iterations = 7);

} // namespace uqsim::workload

#endif // UQSIM_WORKLOAD_LOAD_SWEEP_HH
