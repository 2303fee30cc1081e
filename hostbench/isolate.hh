/**
 * @file
 * One workload run in a child process of its own.
 *
 * Destroying a World does not return all of its memory (the in-use
 * heap grows by tens of MB per social-network run), so runs repeated
 * in one process would make peak memory, and the page faults behind
 * it, depend on how many runs fit in the time budget. Each run is
 * therefore forked: the child sets the world up once, runs it, and
 * reports back over a pipe; the parent reaps it and reads its peak
 * RSS. The parent never builds a World, so it holds no threads when
 * it forks.
 */

#ifndef UQSIM_HOSTBENCH_ISOLATE_HH
#define UQSIM_HOSTBENCH_ISOLATE_HH

#include <map>
#include <string>
#include <vector>

#include "probe.hh"
#include "workload.hh"

namespace hostbench {

/** What one isolated run reports. */
struct Report
{
    /** Non-empty when the child died or reported nothing usable. */
    std::string error;
    RunResult run;
    /** The run's set-up, the first in its process. */
    SetupTimes setup;
    /** Peak resident memory of the child, MiB. */
    double peakRssMb = 0.0;
    /** Probed runs only: layerCounts() at the stop, alloc_calls,
     *  alloc_bytes, depth_p50 and depth_p99. */
    std::map<std::string, double> counts;
};

/**
 * Run @p w once in a child process. A probed run counts allocations,
 * samples queue depth every simulated millisecond and reads the layer
 * counts at the stop. Spans the child records are added to @p spans.
 */
Report isolatedRun(const Workload &w, const Seeds &seeds,
                   const Variant &variant, bool probed, SpanLog *spans);

} // namespace hostbench

#endif // UQSIM_HOSTBENCH_ISOLATE_HH
