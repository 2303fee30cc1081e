#include "workload.hh"

#include <sstream>

#include "core/json.hh"
#include "core/logging.hh"
#include "core/types.hh"

using namespace uqsim;

namespace hostbench {

namespace {

// Simulated window lengths are chosen so one run costs about half a
// host second on a 4-vCPU Xeon: a benchmark run of 30 s holds 50 or
// more of them, so it catches the moments its host is least disturbed.
// Every workload starts measuring at t=0 (no warm-up reset), so the
// request accounting covers every request the run injected.
const std::vector<Workload> kWorkloads = {
    // The headline request path: legacy fixed-hit caches, tracing on,
    // no opt-in feature. Host time goes to core, service, rpc, net, cpu
    // and trace; none to core/parallel, data, replica or admission.
    {"social-steady",
     R"({"app": "social-network", "servers": 12, "qps": 2000,
         "duration_sec": 4, "warmup_sec": 0})",
     0},
    // The only workload through core/parallel: one world over 4 shards
    // on 4 threads, the 500 us wire as lookahead. With that wire the
    // graph's connection pools saturate near 5700 req/s, so it runs at
    // 4000 qps, below the knee, where a run's cost does not grow with
    // its length.
    {"social-partition4",
     R"({"app": "social-network", "servers": 12, "qps": 4000,
         "duration_sec": 1.25, "warmup_sec": 0, "shards": 4,
         "threads": 4, "placement": {"mode": "partition", "pin": []}})",
     500 * kTicksPerUs},
    // The same graph used differently: keyed data hits, misses and
    // invalidations, replicated quorum writes, typed token-bucket
    // rejects, a timer scheduled and cancelled per RPC attempt, and
    // telemetry sampling.
    {"social-keyed-admission",
     R"({"app": "social-network", "servers": 12, "qps": 2000,
         "duration_sec": 4, "warmup_sec": 0, "rpc_timeout": "50ms",
         "data": {"keys": 200000, "capacity": 8192, "zipf_s": 1,
                  "write": "invalidate"},
         "replication": {"factor": 3, "quorum": 0, "read": "ryw"},
         "qos": {"enabled": true, "rate": 2000,
                 "batch": "composePost-text,repost",
                 "best_effort": "followUser,unfollowUser,blockUser"},
         "slo": {"enabled": true, "interval": "100ms",
                 "latency": "30ms"}})",
     0},
};

std::uint64_t
sumOver(apps::WorldHandle &w,
        std::uint64_t (service::App::*counter)() const)
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < w.shards(); ++i)
        total += (w.shard(i).app.get()->*counter)();
    return total;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    return kWorkloads;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
SimStats::json() const
{
    std::ostringstream os;
    os << "{\"digest\":\"" << hex64(digest) << "\",\"events\":" << events
       << ",\"injected\":" << injected << ",\"completed\":" << completed
       << ",\"failed\":" << failed << ",\"dropped\":" << dropped
       << ",\"p50_ns\":" << p50 << ",\"p99_ns\":" << p99 << "}";
    return os.str();
}

std::unique_ptr<Built>
setUp(const Workload &w, const Seeds &seeds, const Variant &variant,
      SpanLog *spans)
{
    auto b = std::make_unique<Built>();
    apps::Scenario &s = b->scenario;

    double t0 = wallSeconds();
    {
        SpanLog::Scope span(spans, "parse", "apps");
        std::string error;
        if (!apps::parseScenarioJson(w.scenarioJson, s, error))
            fatal("hostbench: workload " + w.name + ": " + error);
        s.seed = seeds.world;
        if (variant.shards > 0)
            s.shards = variant.shards;
        if (variant.threads > 0)
            s.threads = variant.threads;
    }
    double t1 = wallSeconds();
    b->setup.parse = t1 - t0;

    // Build the bare graph first and enable each feature after it, in
    // the order buildScenarioApp() and runScenario() apply them, so
    // build and enable time separately and the digest is unchanged.
    apps::Scenario bare = s;
    bare.dataKeys = 0;
    bare.replicaFactor = 0;
    bare.qosEnabled = false;
    const bool partition = s.placement == "partition";
    {
        SpanLog::Scope span(spans, "build", "apps");
        apps::WorldConfig config = apps::worldConfigFor(s);
        if (w.wireLatency > 0)
            config.netConfig.wireLatency = w.wireLatency;
        if (!variant.tracing)
            config.appConfig.tracing = false;
        b->world = std::make_unique<apps::WorldHandle>(
            config, s.shards, s.threads,
            partition ? apps::Deployment::Partition
                      : apps::Deployment::Replicate);
        for (unsigned i = 0; i < b->world->shards(); ++i)
            apps::buildScenarioApp(b->world->shard(i), bare);
    }
    t0 = wallSeconds();
    b->setup.build = t0 - t1;

    for (unsigned i = 0; i < b->world->shards(); ++i) {
        apps::World &world = b->world->shard(i);
        service::App &app = *world.app;
        if (s.dataKeys > 0) {
            SpanLog::Scope span(spans, "enableKeyedData", "apps");
            app.enableKeyedData(apps::dataTierConfigFor(s));
        }
        if (s.replicaFactor >= 2) {
            SpanLog::Scope span(spans, "enableReplication", "apps");
            app.enableReplication(apps::replicationConfigFor(s));
        }
        if (s.qosEnabled) {
            SpanLog::Scope span(spans, "enableQos", "apps");
            app.enableQos(apps::qosConfigFor(s));
        }
        if (s.rpcTimeout > 0) {
            SpanLog::Scope span(spans, "enableTimeouts", "apps");
            for (service::Microservice *svc : app.services())
                svc->mutableDef().resilience.timeout = s.rpcTimeout;
        }
        if (variant.telemetry) {
            SpanLog::Scope span(spans, "attachObservability", "apps");
            if (auto pipe = apps::attachObservability(world, s))
                b->pipelines.push_back(std::move(pipe));
        }
    }
    if (partition) {
        SpanLog::Scope span(spans, "enablePartition", "apps");
        b->world->enablePartition(s.pins);
    }
    t1 = wallSeconds();
    b->setup.enable = t1 - t0;

    // Read-only clock observers: digest-inert by construction.
    if (variant.depthSampleEvery > 0) {
        b->depth.resize(b->world->shards());
        for (unsigned i = 0; i < b->world->shards(); ++i) {
            SimContext &ctx = b->world->shard(i).ctx;
            std::vector<double> &out = b->depth[i];
            ctx.addClockObserver(variant.depthSampleEvery,
                                 [&ctx, &out](Tick) {
                out.push_back(static_cast<double>(ctx.queue().size()));
            });
        }
    }

    b->load.qps = s.qps;
    b->load.warmup = secToTicks(s.warmupSec);
    b->load.measure = secToTicks(s.durationSec);
    b->load.users = s.skew >= 0.0
                        ? workload::UserPopulation::skewed(s.users, s.skew)
                        : workload::UserPopulation::uniform(s.users);
    b->load.seed = seeds.load;
    b->load.arrival = apps::arrivalConfigFor(s);
    return b;
}

std::map<std::string, double>
layerCounts(apps::WorldHandle &w)
{
    std::map<std::string, double> c;
    auto add = [&c](const char *key, double v) { c[key] += v; };
    add("events", static_cast<double>(w.engine().eventsExecuted()));
    for (unsigned i = 0; i < w.shards(); ++i) {
        apps::World &world = w.shard(i);
        service::App &app = *world.app;
        add("messages", static_cast<double>(world.network->messagesDelivered()));
        add("bytes", static_cast<double>(world.network->bytesDelivered()));
        for (const auto &srv : world.cluster.servers())
            add("tasks", static_cast<double>(srv->tasksCompleted()));
        add("spans_inserted",
            static_cast<double>(app.traceStore().inserted()));
        add("spans_evicted", static_cast<double>(app.traceStore().evicted()));

        // The registry's only enumeration surface is its JSON snapshot.
        json::Value snap;
        std::string error;
        if (!json::parse(app.metrics().snapshotJson(), snap, error))
            fatal("hostbench: unreadable metrics snapshot: " + error);
        const json::Value *counters = snap.find("counters");
        if (counters == nullptr)
            continue;
        auto has = [](const std::string &name, const std::string &prefix,
                      const std::string &suffix) {
            return name.rfind(prefix, 0) == 0 &&
                   name.size() >= prefix.size() + suffix.size() &&
                   name.compare(name.size() - suffix.size(), suffix.size(),
                                suffix) == 0;
        };
        for (const auto &[name, v] : counters->object) {
            if (name == "trace.spans_offered")
                add("spans_offered", v.number);
            else if (name == "rpc.timeouts")
                add("rpc_timeouts", v.number);
            else if (has(name, "data.", ".hits"))
                add("data_hits", v.number);
            else if (has(name, "data.", ".misses"))
                add("data_misses", v.number);
            if (has(name, "admission.throttled", ""))
                add("admission_throttled", v.number);
            if (has(name, "admission.admitted", "") ||
                has(name, "admission.throttled", "") ||
                has(name, "admission.shed", "") ||
                has(name, "admission.overflow", ""))
                add("admission_arrivals", v.number);
        }
        // Replicated tiers' store writes are the replica-group writes.
        for (const service::Microservice *svc : app.services())
            if (svc->replicaSet() != nullptr)
                if (const json::Value *v =
                        counters->find("data." + svc->def().name + ".writes"))
                    add("replica_writes", v->number);
    }
    return c;
}

std::string
checkAccounting(const SimStats &at_stop, std::uint64_t injected_after_drain,
                std::uint64_t resolved_after_drain)
{
    std::ostringstream err;
    if (at_stop.resolved() > at_stop.injected)
        err << "resolved " << at_stop.resolved() << " > injected "
            << at_stop.injected << " at stop";
    else if (injected_after_drain != at_stop.injected)
        err << "injected moved from " << at_stop.injected << " to "
            << injected_after_drain << " after the generators stopped";
    else if (resolved_after_drain != injected_after_drain)
        err << (injected_after_drain - resolved_after_drain) << " of "
            << injected_after_drain << " requests never resolved";
    return err.str();
}

RunResult
runBuilt(Built &b, SpanLog *spans, const std::function<void()> &at_stop)
{
    apps::WorldHandle &w = *b.world;
    RunResult r;
    workload::LoadResult load;

    const AllocCounts a0 = allocCounts();
    const double c0 = processCpuSeconds();
    const double t0 = wallSeconds();
    {
        SpanLog::Scope span(spans, "runWorld", "apps");
        load = apps::runWorld(w, b.load);
    }
    r.wallS = wallSeconds() - t0;
    r.cpuS = processCpuSeconds() - c0;
    const AllocCounts a1 = allocCounts();
    r.allocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};

    SimStats &st = r.sim;
    st.digest = w.engine().executionDigest();
    st.events = w.engine().eventsExecuted();
    st.injected = sumOver(w, &service::App::injected);
    st.completed = sumOver(w, &service::App::completed);
    st.failed = sumOver(w, &service::App::failedRequests);
    st.dropped = sumOver(w, &service::App::droppedRequests);
    st.p50 = load.p50;
    st.p99 = load.p99;
    if (at_stop)
        at_stop();

    // Untimed drain: no request may stay unresolved once the
    // generators stop (timeouts, queues and replies all finish).
    std::uint64_t injected = st.injected, resolved = st.resolved();
    for (int step = 0; step < 60 && resolved != injected; ++step) {
        w.engine().runFor(kTicksPerSec);
        injected = sumOver(w, &service::App::injected);
        resolved = sumOver(w, &service::App::completed) +
                   sumOver(w, &service::App::failedRequests) +
                   sumOver(w, &service::App::droppedRequests);
    }
    r.inFlightAtStop =
        st.injected >= st.resolved() ? st.injected - st.resolved() : 0;
    r.accountingError = checkAccounting(st, injected, resolved);
    return r;
}

} // namespace hostbench
