/**
 * @file
 * The benchmark's workloads and the one way every run is set up and
 * driven: parse the scenario, build the world and its app through the
 * public apps API, enable the scenario's features, then runWorld().
 * Each phase is timed separately, and every run ends with the request
 * accounting check.
 */

#ifndef UQSIM_HOSTBENCH_WORKLOAD_HH
#define UQSIM_HOSTBENCH_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/scenario.hh"
#include "obs/pipeline.hh"
#include "probe.hh"

namespace hostbench {

/** One benchmark workload. */
struct Workload
{
    std::string name;
    /** Scenario document, parsed on every set-up (the parse phase). */
    std::string scenarioJson;
    /** Inter-shard wire (and engine lookahead); 0 = net default. */
    uqsim::Tick wireLatency = 0;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Workload by name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** World and load seeds of one run. */
struct Seeds
{
    std::uint64_t world = 1;
    std::uint64_t load = 2;
};

/**
 * Digest-inert variations the traced run applies on top of a
 * workload. The defaults reproduce the workload exactly.
 */
struct Variant
{
    bool tracing = true;   ///< false: App tracing off
    bool telemetry = true; ///< false: no obs pipeline attached
    unsigned shards = 0;   ///< 0 = the scenario's shard count
    unsigned threads = 0;  ///< 0 = the scenario's thread count
    /** > 0: sample every shard's event-queue depth at this period. */
    uqsim::Tick depthSampleEvery = 0;
};

/** Host seconds spent in each set-up phase. */
struct SetupTimes
{
    double parse = 0.0;
    double build = 0.0;
    double enable = 0.0;

    double total() const { return parse + build + enable; }
};

/** A world built and armed for one run. */
struct Built
{
    uqsim::apps::Scenario scenario;
    uqsim::apps::LoadSpec load;
    std::unique_ptr<uqsim::apps::WorldHandle> world;
    /** Declared after `world` so they are destroyed first. */
    std::vector<std::unique_ptr<uqsim::obs::Pipeline>> pipelines;
    /** Sampled queue depths, one vector per shard. */
    std::vector<std::vector<double>> depth;
    SetupTimes setup;
};

/**
 * Parse, build and enable @p w. Dies (via the simulator's fatal) on a
 * scenario the simulator rejects.
 */
std::unique_ptr<Built> setUp(const Workload &w, const Seeds &seeds,
                             const Variant &variant, SpanLog *spans);

/** Simulated results; a speed-only change leaves all of them equal. */
struct SimStats
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t p50 = 0; ///< ns, simulated end-to-end
    std::uint64_t p99 = 0; ///< ns, simulated end-to-end

    bool operator==(const SimStats &) const = default;

    /** Requests resolved at the stop of the run. */
    std::uint64_t resolved() const { return completed + failed + dropped; }

    std::string json() const;
};

/** Counts and host costs of one run. */
struct RunResult
{
    SimStats sim;
    double wallS = 0.0; ///< host wall seconds inside runWorld
    double cpuS = 0.0;  ///< process CPU seconds inside runWorld
    AllocCounts allocs; ///< allocations inside runWorld (counting on)
    /** Requests still in flight when the load window stopped. */
    std::uint64_t inFlightAtStop = 0;
    /** Empty when the accounting identity held. */
    std::string accountingError;
};

/**
 * Drive @p b through its load window (timed), then drain untimed and
 * check that every injected request is accounted for: injected =
 * completed + failed + dropped + in flight at the stop, and every
 * request in flight at the stop resolves during the drain. @p at_stop,
 * when set, runs between the stop and the drain (layer counts are
 * read there).
 */
RunResult runBuilt(Built &b, SpanLog *spans,
                   const std::function<void()> &at_stop = {});

/**
 * Layer counts read through the layers' public accessors (summed over
 * shards): events, messages, bytes, tasks, spans_inserted,
 * spans_evicted, spans_offered, rpc_timeouts, data_hits, data_misses,
 * replica_writes, admission_throttled and admission_arrivals.
 */
std::map<std::string, double> layerCounts(uqsim::apps::WorldHandle &w);

/**
 * The accounting identity on raw counts; returns an error message or
 * "". Split out so the self-test can feed it a broken identity.
 */
std::string checkAccounting(const SimStats &at_stop,
                            std::uint64_t injected_after_drain,
                            std::uint64_t resolved_after_drain);

} // namespace hostbench

#endif // UQSIM_HOSTBENCH_WORKLOAD_HH
