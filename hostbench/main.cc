/**
 * @file
 * uqsim_hostbench: host throughput of the simulator on three
 * social-network workloads, and a traced run that splits each
 * request's host cost by layer.
 *
 *   uqsim_hostbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --root DIR [--world-seed N] [--load-seed N]
 *                   [--git-sha SHA] [--source-hash H]
 *   uqsim_hostbench --self-test --root DIR
 *
 * --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
 * prints its per-layer metrics, the attribution table and writes the
 * host-span file. The last stdout line is the result object. Every
 * workload run is one operation; it fails when a correctness check
 * fails (see README.md).
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/types.hh"
#include "isolate.hh"
#include "layers.hh"
#include "probe.hh"
#include "workload.hh"

using namespace uqsim;
using namespace hostbench;

namespace {

// -- metric catalogue -------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    bool perLayer;
};

const std::vector<MetricDef> kMetrics = {
    {"sim_req_per_s", "req/s", "higher", false},
    {"cpu_ms_per_kreq", "ms", "lower", false},
    {"setup_s", "s", "lower", false},
    {"peak_rss_mb", "MB", "lower", false},

    {"core.events_per_req", "count", "lower", true},
    {"core.ns_per_event", "ns", "lower", true},
    {"core.queue_depth_p50", "count", "lower", true},
    {"core.queue_depth_p99", "count", "lower", true},
    {"core.churn_ns", "ns", "lower", true},
    {"core.cancel_ns", "ns", "lower", true},
    {"parallel.cpu_util", "ratio", "higher", true},
    {"parallel.speedup_vs_1", "x", "higher", true},
    {"parallel.extra_events_per_req", "count", "lower", true},
    {"alloc.per_req", "count", "lower", true},
    {"alloc.bytes_per_req", "B", "lower", true},
    {"alloc.pair_ns", "ns", "lower", true},
    {"net.msgs_per_req", "count", "lower", true},
    {"net.bytes_per_req", "B", "lower", true},
    {"net.send_ns", "ns", "lower", true},
    {"rpc.attempts_per_req", "count", "lower", true},
    {"rpc.pool_acquire_ns", "ns", "lower", true},
    {"rpc.timeouts_per_kreq", "count", "lower", true},
    {"cpu.tasks_per_req", "count", "lower", true},
    {"cpu.execute_ns", "ns", "lower", true},
    {"service.request_ns", "ns", "lower", true},
    {"service.host_ns_per_req", "ns", "lower", true},
    {"service.glue_share", "ratio", "lower", true},
    {"service.admission.throttled_frac", "ratio", "lower", true},
    {"data.hit_ratio", "ratio", "higher", true},
    {"data.accesses_per_req", "count", "lower", true},
    {"data.access_ns", "ns", "lower", true},
    {"replica.writes_per_req", "count", "lower", true},
    {"trace.spans_per_req", "count", "lower", true},
    {"trace.evicted_frac", "ratio", "lower", true},
    {"trace.insert_ns", "ns", "lower", true},
    {"trace.host_share", "ratio", "lower", true},
    {"obs.host_share", "ratio", "lower", true},
    {"apps.parse_s", "s", "lower", true},
    {"apps.build_s", "s", "lower", true},
    {"apps.enable_s", "s", "lower", true},
    {"bench.traced_wall_ratio", "ratio", "lower", true},
};

using Metrics = std::map<std::string, double>;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/**
 * Compare the catalogue with BENCHMARK.json's end_to_end / per_layer
 * lists: same names, units and directions, nothing missing or extra.
 */
std::vector<std::string>
checkCatalogue(const std::vector<MetricDef> &catalogue,
               const std::string &benchmark_path)
{
    std::vector<std::string> errors;
    std::string text, error;
    json::Value doc;
    if (!readFile(benchmark_path, text) || !json::parse(text, doc, error)) {
        errors.push_back("cannot read " + benchmark_path + " " + error);
        return errors;
    }
    for (const bool per_layer : {false, true}) {
        const char *key = per_layer ? "per_layer" : "end_to_end";
        const json::Value *list = doc.find(key);
        if (list == nullptr || !list->isArray()) {
            errors.push_back(std::string("BENCHMARK.json has no ") + key);
            continue;
        }
        std::set<std::string> listed;
        for (const json::Value &m : list->array) {
            const json::Value *name = m.find("name");
            const json::Value *unit = m.find("unit");
            const json::Value *better = m.find("better");
            if (!name || !unit || !better) {
                errors.push_back(std::string("malformed entry in ") + key);
                continue;
            }
            listed.insert(name->string);
            const MetricDef *def = nullptr;
            for (const MetricDef &d : catalogue)
                if (d.perLayer == per_layer && name->string == d.name)
                    def = &d;
            if (def == nullptr)
                errors.push_back(name->string + " in BENCHMARK.json " +
                                 key + " is not printed");
            else if (unit->string != def->unit ||
                     better->string != def->better)
                errors.push_back(name->string +
                                 ": unit/direction differ from "
                                 "BENCHMARK.json");
        }
        for (const MetricDef &d : catalogue)
            if (d.perLayer == per_layer && !listed.count(d.name))
                errors.push_back(std::string(d.name) +
                                 " is printed but not in BENCHMARK.json " +
                                 key);
    }
    return errors;
}

// -- recorded simulated results ----------------------------------------

/** Simulated results recorded in expected.json for (workload, seeds). */
bool
findExpected(const std::string &path, const std::string &workload,
             const Seeds &seeds, SimStats &out, std::string &error)
{
    std::string text;
    json::Value doc;
    if (!readFile(path, text) || !json::parse(text, doc, error)) {
        error = "cannot read " + path + " " + error;
        return false;
    }
    const json::Value *runs = doc.find("runs");
    const json::Value *w = runs ? runs->find(workload) : nullptr;
    const json::Value *rec =
        w ? w->find(std::to_string(seeds.world) + "/" +
                    std::to_string(seeds.load))
          : nullptr;
    if (rec == nullptr)
        return false;
    auto u64 = [&](const char *key) -> std::uint64_t {
        const json::Value *v = rec->find(key);
        return v && v->isNumber() ? static_cast<std::uint64_t>(v->number)
                                  : 0;
    };
    const json::Value *digest = rec->find("digest");
    out.digest = digest ? std::strtoull(digest->string.c_str(), nullptr, 16)
                        : 0;
    out.events = u64("events");
    out.injected = u64("injected");
    out.completed = u64("completed");
    out.failed = u64("failed");
    out.dropped = u64("dropped");
    out.p50 = u64("p50_ns");
    out.p99 = u64("p99_ns");
    return true;
}

// -- operations --------------------------------------------------------

/**
 * Counts operations (workload runs) and the failed ones. A run fails
 * when its accounting identity breaks or its simulated results differ
 * from the reference it must reproduce.
 */
class OpLog
{
  public:
    /** @return true when every check on the run @p rep held. */
    bool
    check(const std::string &what, const Report &rep,
          const SimStats *must_equal)
    {
        ++attempted_;
        std::string err = rep.error;
        if (err.empty())
            err = rep.run.accountingError;
        if (err.empty() && must_equal != nullptr &&
            !(rep.run.sim == *must_equal))
            err = "simulated results " + rep.run.sim.json() +
                  " differ from " + must_equal->json();
        if (err.empty())
            return true;
        ++failed_;
        std::cerr << "hostbench: FAILED " << what << ": " << err << "\n";
        return false;
    }

    /** A failed check outside any run: the result is not correct. */
    void
    problem(const std::string &msg)
    {
        ++problems_;
        std::cerr << "hostbench: FAILED " << msg << "\n";
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && problems_ == 0; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t problems_ = 0;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool worldSeedSet = false, loadSeedSet = false;
    Seeds seeds;
    double seconds = 10.0;
    bool trace = false;
    bool selfTest = false;
    std::string root = ".";
    std::string gitSha, sourceHash;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "uqsim_hostbench: " << msg
              << "\nusage: uqsim_hostbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --root DIR\n"
                 "       [--world-seed N] [--load-seed N] [--git-sha S] "
                 "[--source-hash H] | --self-test --root DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto number = [&](int &i) -> std::uint64_t {
        if (i + 1 >= argc)
            usage(std::string(argv[i]) + " needs a value");
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(argv[++i], &end, 10);
        if (*argv[i] == '\0' || *end != '\0')
            usage(std::string("bad number '") + argv[i] + "'");
        return v;
    };
    auto text = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload")
            o.workload = text(i);
        else if (a == "--seed")
            o.seed = number(i);
        else if (a == "--world-seed")
            o.seeds.world = number(i), o.worldSeedSet = true;
        else if (a == "--load-seed")
            o.seeds.load = number(i), o.loadSeedSet = true;
        else if (a == "--seconds")
            o.seconds = static_cast<double>(number(i));
        else if (a == "--trace")
            o.trace = number(i) != 0;
        else if (a == "--root")
            o.root = text(i);
        else if (a == "--git-sha")
            o.gitSha = text(i);
        else if (a == "--source-hash")
            o.sourceHash = text(i);
        else if (a == "--self-test")
            o.selfTest = true;
        else
            usage("unknown argument '" + a + "'");
    }
    // --seed N gives world seed N and load seed N+1 (runScenario's
    // derivation); either can be set on its own.
    if (!o.worldSeedSet)
        o.seeds.world = o.seed;
    if (!o.loadSeedSet)
        o.seeds.load = o.seeds.world + 1;
    if (!o.selfTest && findWorkload(o.workload) == nullptr)
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");
    return o;
}

// -- end-to-end run ------------------------------------------------------

/** Fewest measured runs, however short --seconds is. */
constexpr int kMinRuns = 3;

/**
 * Mean of the best two of @p v: the highest when @p higher, else the
 * lowest. Co-tenants on a shared host slow the simulator's core by up
 * to a third for seconds to minutes at a time (a compute-only loop
 * beside it swings +-18% while a memory-latency loop stays flat), and
 * interference only ever slows a repetition down. The best
 * repetitions are the least disturbed estimate of the simulator's own
 * speed. Measured over ten runs on such a host, their run-to-run
 * spread was never above the median's and at best half of it.
 */
double
bestTwo(std::vector<double> v, bool higher)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    if (higher)
        std::reverse(v.begin(), v.end());
    return v.size() == 1 ? v[0] : 0.5 * (v[0] + v[1]);
}

Metrics
endToEnd(const Options &o, const Workload &w, const SimStats *expected,
         OpLog &ops)
{
    SimStats first;
    std::vector<double> rate, cpu, setup, rss;
    const double start = wallSeconds();
    for (int run = 0;
         run < kMinRuns || wallSeconds() - start < o.seconds; ++run) {
        const Report rep = isolatedRun(w, o.seeds, {}, false, nullptr);
        ops.check("run " + std::to_string(run), rep,
                  run == 0 ? expected : &first);
        const RunResult &r = rep.run;
        if (run == 0) {
            first = r.sim;
            std::cout << "sim " << r.sim.json() << "\n";
        }
        const double req = static_cast<double>(r.sim.resolved());
        rate.push_back(req / r.wallS);
        cpu.push_back(r.cpuS * 1e6 / req);
        setup.push_back(rep.setup.total());
        rss.push_back(rep.peakRssMb);
        std::cout << "run " << run << ": " << r.sim.resolved()
                  << " requests, wall " << std::setprecision(4) << r.wallS
                  << " s, cpu " << r.cpuS << " s, set-up "
                  << rep.setup.total() * 1e3
                  << " ms, in flight at stop " << r.inFlightAtStop
                  << ", peak rss " << rep.peakRssMb << " MB\n"
                  << std::setprecision(6);
    }
    std::cout << "medians: " << median(rate) << " req/s, " << median(cpu)
              << " ms/kreq, set-up " << median(setup) << " s\n";
    return {{"sim_req_per_s", bestTwo(rate, true)},
            {"cpu_ms_per_kreq", bestTwo(cpu, false)},
            {"setup_s", bestTwo(setup, false)},
            {"peak_rss_mb", median(rss)}};
}

// -- traced run ------------------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Row
{
    std::string layer;
    double calls; ///< per request
    double ns;    ///< per call
};

void
printAttribution(const std::string &workload, double host_ns,
                 const std::vector<Row> &rows, double remainder)
{
    std::cout << "\nattribution of host ns/request on " << workload
              << " (calls/request x ns/call):\n"
              << std::left << std::setw(26) << "layer" << std::right
              << std::setw(12) << "calls/req" << std::setw(12) << "ns/call"
              << std::setw(12) << "ns/req" << std::setw(9) << "share\n"
              << std::fixed;
    for (const Row &r : rows)
        std::cout << std::left << std::setw(26) << r.layer << std::right
                  << std::setprecision(2) << std::setw(12) << r.calls
                  << std::setprecision(1) << std::setw(12) << r.ns
                  << std::setw(12) << r.calls * r.ns << std::setw(7)
                  << 100.0 * r.calls * r.ns / host_ns << " %\n";
    std::cout << std::left << std::setw(50)
              << "unexplained remainder (service glue)" << std::right
              << std::setw(12) << remainder << std::setw(7)
              << 100.0 * remainder / host_ns << " %\n"
              << std::left << std::setw(50) << "total (measured, plain runs)"
              << std::right << std::setw(12) << host_ns << "\n\n"
              << std::defaultfloat << std::setprecision(6);
}

Metrics
traced(const Options &o, const Workload &w, const SimStats *expected,
       OpLog &ops, SpanLog &spans)
{
    apps::Scenario scn;
    std::string error;
    if (!apps::parseScenarioJson(w.scenarioJson, scn, error))
        ops.problem("workload " + w.name + ": " + error);
    const bool partition = scn.placement == "partition";
    // attachObservability()'s rule: an armed SLO implies telemetry.
    const bool has_obs =
        scn.obsEnabled || scn.sloLatency > 0 || scn.sloErrorRate > 0.0;

    // Plain runs, and variants that each differ from them in one
    // respect, in alternating rounds so host drift hits all alike.
    struct Series
    {
        std::string name;
        Variant variant;
        bool sameResults; ///< must reproduce the plain run's results
        std::vector<Report> reps;
    };
    std::vector<Series> series;
    series.push_back({"plain", {}, true, {}});
    Variant v;
    v.tracing = false;
    series.push_back({"tracing-off", v, true, {}});
    if (has_obs) {
        v = {};
        v.telemetry = false;
        series.push_back({"telemetry-off", v, true, {}});
    }
    if (partition) {
        v = {};
        v.shards = 1;
        v.threads = 1;
        series.push_back({"one-shard", v, false, {}});
    }

    // The plain run's results are the reference every digest-inert
    // variant must reproduce: the recorded ones when this seed has
    // them, else the first plain run's.
    SimStats plain = expected ? *expected : SimStats{};
    bool have_plain = expected != nullptr;
    const double start = wallSeconds();
    for (int round = 0;
         round < kMinRuns || wallSeconds() - start < o.seconds; ++round) {
        for (std::size_t k = 0; k < series.size(); ++k) {
            Series &s = series[(k + round) % series.size()];
            SpanLog::Scope span(&spans, s.name + " run", "run");
            Report rep = isolatedRun(w, o.seeds, s.variant, false, &spans);
            const SimStats *ref =
                s.sameResults
                    ? (have_plain ? &plain : nullptr)
                    : (s.reps.empty() ? nullptr : &s.reps.front().run.sim);
            ops.check(s.name, rep, ref);
            if (s.sameResults && !have_plain && rep.error.empty()) {
                plain = rep.run.sim;
                have_plain = true;
            }
            s.reps.push_back(std::move(rep));
        }
    }
    auto wall = [](const Series &s) {
        std::vector<double> out;
        for (const Report &r : s.reps)
            out.push_back(r.run.wallS);
        return median(out);
    };
    std::vector<double> plain_cpu;
    for (const Report &r : series[0].reps)
        plain_cpu.push_back(r.run.cpuS);
    const double plain_wall = wall(series[0]);

    // The probed run counts allocations, samples queue depth and reads
    // the layer counts; it must reproduce the plain results. So must a
    // partitioned world driven by one thread instead of four.
    Report probed;
    {
        SpanLog::Scope span(&spans, "probed run", "run");
        probed = isolatedRun(w, o.seeds, {}, true, &spans);
    }
    ops.check("probed", probed, have_plain ? &plain : nullptr);
    if (partition) {
        Variant one_thread;
        one_thread.threads = 1;
        SpanLog::Scope span(&spans, "one-thread run", "run");
        ops.check("one-thread",
                  isolatedRun(w, o.seeds, one_thread, false, &spans),
                  have_plain ? &plain : nullptr);
    }

    Metrics m;
    std::vector<double> parse, build, enable;
    for (const Report &r : series[0].reps) {
        parse.push_back(r.setup.parse);
        build.push_back(r.setup.build);
        enable.push_back(r.setup.enable);
    }
    m["apps.parse_s"] = median(parse);
    m["apps.build_s"] = median(build);
    m["apps.enable_s"] = median(enable);

    std::map<std::string, double> &c = probed.counts;
    const double req = static_cast<double>(plain.resolved());
    const double events = static_cast<double>(plain.events);
    const double host_ns = plain_wall * 1e9 / req;
    m["core.events_per_req"] = events / req;
    m["core.ns_per_event"] = plain_wall * 1e9 / events;
    m["core.queue_depth_p50"] = c["depth_p50"];
    m["core.queue_depth_p99"] = c["depth_p99"];
    m["service.host_ns_per_req"] = host_ns;
    m["bench.traced_wall_ratio"] = probed.run.wallS / plain_wall;
    m["parallel.cpu_util"] =
        median(plain_cpu) / (plain_wall * static_cast<double>(scn.threads));
    m["parallel.speedup_vs_1"] = 1.0;
    m["parallel.extra_events_per_req"] = 0.0;
    m["obs.host_share"] = 0.0;
    for (const Series &s : series) {
        if (s.name == "tracing-off")
            m["trace.host_share"] = 1.0 - wall(s) / plain_wall;
        else if (s.name == "telemetry-off")
            m["obs.host_share"] = 1.0 - wall(s) / plain_wall;
        else if (s.name == "one-shard") {
            m["parallel.speedup_vs_1"] = wall(s) / plain_wall;
            m["parallel.extra_events_per_req"] =
                (events -
                 static_cast<double>(s.reps.front().run.sim.events)) /
                req;
        }
    }

    // Each RPC attempt records one span and each request one client span.
    const double attempts = ratio(c["spans_offered"] - req, req);
    const double hits = c["data_hits"], misses = c["data_misses"];
    m["alloc.per_req"] = c["alloc_calls"] / req;
    m["alloc.bytes_per_req"] = c["alloc_bytes"] / req;
    m["net.msgs_per_req"] = c["messages"] / req;
    m["net.bytes_per_req"] = c["bytes"] / req;
    m["rpc.attempts_per_req"] = attempts;
    m["rpc.timeouts_per_kreq"] = c["rpc_timeouts"] * 1000.0 / req;
    m["cpu.tasks_per_req"] = c["tasks"] / req;
    m["service.admission.throttled_frac"] =
        ratio(c["admission_throttled"], c["admission_arrivals"]);
    m["data.hit_ratio"] = ratio(hits, hits + misses);
    m["data.accesses_per_req"] = (hits + misses) / req;
    m["replica.writes_per_req"] = c["replica_writes"] / req;
    m["trace.spans_per_req"] = c["spans_inserted"] / req;
    m["trace.evicted_frac"] = ratio(c["spans_evicted"], c["spans_inserted"]);

    // Micro-benchmarks, shaped by what the probed run measured. The
    // churn delay follows Little's law: depth = event rate x time in
    // queue, per shard.
    const double sim_ticks = secToTicks(scn.durationSec) * 1.2;
    const std::size_t depth_p50 = static_cast<std::size_t>(c["depth_p50"]);
    const Tick mean_delay = static_cast<Tick>(
        ratio(c["depth_p50"] * sim_ticks * scn.shards, events));
    const Tick timeout =
        scn.rpcTimeout > 0 ? scn.rpcTimeout : 50 * kTicksPerMs;
    auto micro = [&](const char *name, auto &&fn) {
        SpanLog::Scope span(&spans, name, "micro");
        return fn();
    };
    const CallCost churn = micro("EventQueue churn", [&] {
        return queueChurn(depth_p50, mean_delay);
    });
    const CallCost cancel = micro("EventQueue cancel", [&] {
        return queueCancel(depth_p50, mean_delay, timeout);
    });
    const CallCost send = micro("Network::send", [&] {
        return networkSend(ratio(c["bytes"], c["messages"]));
    });
    const CallCost pool = micro("ConnectionPool::acquire", poolAcquire);
    const CallCost exec = micro("Server::execute", serverExecute);
    const CallCost insert = micro("TraceStore::insert", [&] {
        return traceInsert(scn.traceCapacity);
    });
    const CallCost cache = micro("CacheModel::access", cacheAccess);
    const CallCost alloc = micro("operator new+delete", allocPair);
    const CallCost request = micro("App::inject+run", [&] {
        return serviceRequest(w, o.seeds);
    });
    m["core.churn_ns"] = churn.ns;
    m["core.cancel_ns"] = cancel.ns;
    m["net.send_ns"] = send.ns;
    m["rpc.pool_acquire_ns"] = pool.ns;
    m["cpu.execute_ns"] = exec.ns;
    m["trace.insert_ns"] = insert.ns;
    m["data.access_ns"] = cache.ns;
    m["alloc.pair_ns"] = alloc.ns;
    m["service.request_ns"] = request.ns;

    // Attribution: calls/request x ns/call per layer. Engine events and
    // allocations that a layer's own calls make are charged to that
    // layer, so the queue and allocator rows count only the rest.
    const double sends = m["net.msgs_per_req"];
    const double tasks = m["cpu.tasks_per_req"];
    const double spans_req = m["trace.spans_per_req"];
    const double accesses = m["data.accesses_per_req"];
    const double timers = scn.rpcTimeout > 0 ? attempts : 0.0;
    const std::vector<std::pair<double, CallCost>> layer_calls = {
        {sends, send}, {tasks, exec}, {attempts, pool},
        {spans_req, insert}, {accesses, cache}};
    double layer_events = 0.0, layer_allocs = 0.0;
    for (const auto &[calls, cost] : layer_calls) {
        layer_events += calls * cost.eventsPerCall;
        layer_allocs += calls * cost.allocsPerCall;
    }
    const std::vector<Row> rows = {
        {"core (event queue)",
         std::max(0.0, m["core.events_per_req"] - layer_events), churn.ns},
        {"core (timer cancel)", timers, cancel.ns},
        {"net (send)", sends, send.ns},
        {"cpu (execute)", tasks, exec.ns},
        {"rpc (pool acquire)", attempts, pool.ns},
        {"trace (insert)", spans_req, insert.ns},
        {"data (cache access)", accesses, cache.ns},
        {"alloc (new+delete)",
         std::max(0.0, m["alloc.per_req"] - layer_allocs), alloc.ns},
    };
    double explained = 0.0;
    for (const Row &r : rows)
        explained += r.calls * r.ns;
    const double remainder = host_ns - explained;
    m["service.glue_share"] = remainder / host_ns;
    printAttribution(w.name, host_ns, rows, remainder);
    std::cout << "traced run overhead: probed wall " << probed.run.wallS
              << " s against plain " << plain_wall << " s ("
              << m["bench.traced_wall_ratio"] << "x)\n";
    return m;
}

// -- output ----------------------------------------------------------------

std::string
resultLine(bool correct, const OpLog &ops, const Metrics &m, bool per_layer)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << ops.attempted()
       << ", \"failed\": " << ops.failed() << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : kMetrics) {
        if (d.perLayer != per_layer)
            continue;
        const auto it = m.find(d.name);
        os << (first ? "" : ", ") << quoted(d.name)
           << ": {\"value\": " << num(it == m.end() ? 0.0 : it->second)
           << ", \"unit\": " << quoted(d.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

/** Metrics the run should have produced but did not. */
std::vector<std::string>
missingMetrics(const Metrics &m, bool per_layer)
{
    std::vector<std::string> missing;
    for (const MetricDef &d : kMetrics)
        if (d.perLayer == per_layer && !m.count(d.name))
            missing.push_back(d.name);
    return missing;
}

// -- self-test ---------------------------------------------------------

int
selfTest(const Options &o)
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
        failures += ok ? 0 : 1;
    };
    const std::string bench = o.root + "/BENCHMARK.json";

    expect(checkCatalogue(kMetrics, bench).empty(),
           "every printed metric matches BENCHMARK.json");
    std::vector<MetricDef> extra = kMetrics;
    extra.push_back({"bogus.metric", "ns", "lower", true});
    expect(!checkCatalogue(extra, bench).empty(),
           "a metric missing from BENCHMARK.json is caught");
    std::vector<MetricDef> fewer(kMetrics.begin() + 1, kMetrics.end());
    expect(!checkCatalogue(fewer, bench).empty(),
           "a BENCHMARK.json metric that is not printed is caught");

    for (const Workload &w : workloads()) {
        SimStats expected;
        std::string error;
        expect(findExpected(o.root + "/hostbench/expected.json", w.name,
                            Seeds{1, 2}, expected, error),
               w.name + " has recorded results for the baseline seed");
    }

    const Workload &w = *findWorkload("social-steady");
    const Report clean = isolatedRun(w, Seeds{1, 2}, {}, false, nullptr);
    OpLog ops;
    expect(ops.check("clean", clean, nullptr) && ops.failed() == 0,
           "a clean run passes its checks");

    SimStats perturbed = clean.run.sim;
    perturbed.digest ^= 1;
    expect(!ops.check("perturbed digest", clean, &perturbed) &&
               ops.failed() == 1,
           "a perturbed digest is a failed operation");

    Report broken = clean;
    SimStats twice = clean.run.sim;
    twice.completed += 1; // one request counted twice
    broken.run.accountingError =
        checkAccounting(twice, twice.injected, twice.resolved());
    expect(!ops.check("broken accounting", broken, nullptr) &&
               ops.failed() == 2,
           "a broken accounting identity is a failed operation");
    const SimStats &sim = clean.run.sim;
    expect(!checkAccounting(sim, sim.injected, sim.injected - 1).empty(),
           "a request that never resolves breaks the identity");

    Report died = clean;
    died.error = "run killed by signal 9";
    expect(!ops.check("dead run", died, nullptr) && ops.failed() == 3,
           "a run that dies is a failed operation");

    const std::string line = resultLine(true, ops, {}, false);
    json::Value parsed;
    std::string error;
    expect(json::parse(line, parsed, error) && parsed.find("metrics"),
           "the result line is valid JSON");

    std::cout << (failures ? "self-test FAILED" : "self-test passed")
              << "\n";
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    if (o.selfTest)
        return selfTest(o);

    const Workload &w = *findWorkload(o.workload);
    const HostManifest host = hostManifest(o.gitSha, o.sourceHash);
    std::cout << "host " << host.json() << "\n"
              << "workload " << w.name << " seeds {\"seed\":" << o.seed
              << ",\"world\":" << o.seeds.world
              << ",\"load\":" << o.seeds.load << "} seconds " << o.seconds
              << " trace " << (o.trace ? 1 : 0) << "\n";

    OpLog ops;
    for (const std::string &e :
         checkCatalogue(kMetrics, o.root + "/BENCHMARK.json"))
        ops.problem(e);

    SimStats expected;
    std::string error;
    const bool have_expected =
        findExpected(o.root + "/hostbench/expected.json", w.name, o.seeds,
                     expected, error);
    if (!error.empty())
        ops.problem(error);
    std::cout << "recorded results for these seeds: "
              << (have_expected ? "yes, checked" : "none") << "\n";
    const SimStats *exp = have_expected ? &expected : nullptr;

    Metrics metrics;
    if (o.trace) {
        SpanLog spans(true);
        metrics = traced(o, w, exp, ops, spans);
        const std::string path = o.root + "/.bench_build/spans-" + w.name +
                                 "-" + std::to_string(o.seeds.world) +
                                 "-" + std::to_string(o.seeds.load) +
                                 ".json";
        if (spans.write(path))
            std::cout << "wrote " << spans.size() << " host spans to "
                      << path << "\n";
        else
            ops.problem("cannot write " + path);
    } else {
        metrics = endToEnd(o, w, exp, ops);
    }
    for (const std::string &name : missingMetrics(metrics, o.trace))
        ops.problem("metric " + name + " was not measured");

    std::cout << "\n";
    for (const MetricDef &d : kMetrics)
        if (d.perLayer == o.trace)
            std::cout << std::left << std::setw(34) << d.name
                      << std::setw(24) << num(metrics[d.name]) << d.unit
                      << "\n";
    std::cout << "operations attempted " << ops.attempted() << ", failed "
              << ops.failed() << "\n";
    std::cout << resultLine(ops.correct(), ops, metrics, o.trace)
              << std::endl;
    return 0;
}
