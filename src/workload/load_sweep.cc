#include "workload/load_sweep.hh"

#include <algorithm>
#include <memory>

#include "core/logging.hh"

namespace uqsim::workload {

namespace {

/**
 * XORed into a source's seed to derive its arrival process's RNG
 * stream, so arrival draws never collide with the generator's own
 * query-mix/user draws from the same seed.
 */
constexpr std::uint64_t kArrivalSeedTag = 0xa0761d6478bd642full;

} // namespace

LoadResult
runLoadWindow(const std::vector<LoadSource> &sources,
              const std::vector<service::App *> &apps, double offered_qps,
              Tick warmup, Tick measure, const UserPopulation &users,
              const ArrivalConfig &arrival)
{
    std::vector<std::unique_ptr<OpenLoopGenerator>> gens;
    gens.reserve(sources.size());
    for (const LoadSource &src : sources) {
        gens.push_back(std::make_unique<OpenLoopGenerator>(
            *src.app, src.mix, users, src.seed));
        gens.back()->setQps(src.qps);
        if (arrival.kind != ArrivalKind::Poisson)
            gens.back()->setArrivalProcess(ArrivalProcess::make(
                arrival, src.qps, src.seed ^ kArrivalSeedTag));
        gens.back()->start();
    }
    // Every app shares one engine; any context drives the whole world.
    SimContext &sim = apps.front()->ctx();
    sim.runFor(warmup);
    for (service::App *app : apps)
        app->statReset();
    sim.runFor(measure);
    for (auto &gen : gens)
        gen->stop();
    // Give in-flight requests a bounded drain window so completions
    // near the edge are not lost (open-loop: new arrivals stopped).
    // Rates are computed over the arrival window only: the drained
    // completions belong to arrivals inside the measured window.
    sim.runFor(measure / 5);
    const double span_sec = ticksToSec(measure);

    LoadResult r;
    r.offeredQps = offered_qps;
    Histogram latency;
    std::uint64_t within_qos = 0;
    for (const LoadSource &src : sources) {
        r.completed += src.app->completed();
        r.dropped += src.app->droppedRequests();
        within_qos += src.app->completedWithinQos();
        latency.merge(src.app->endToEndLatency());
    }
    // Per-request means weighted by each app's share of completions
    // (exactly 1 for a lone app, so its own means pass through).
    double net = 0.0, comp = 0.0;
    for (const LoadSource &src : sources) {
        const double w =
            r.completed > 0 ? static_cast<double>(src.app->completed()) /
                                  static_cast<double>(r.completed)
                            : 0.0;
        net += src.app->meanNetworkTimePerRequest() * w;
        comp += src.app->meanAppTimePerRequest() * w;
    }
    double util = 0.0;
    for (service::App *app : apps)
        util += app->cluster().averageUtilization();
    r.p50 = latency.p50();
    r.p95 = latency.p95();
    r.p99 = latency.p99();
    r.meanMs = ticksToMs(static_cast<Tick>(latency.mean()));
    r.achievedQps =
        span_sec > 0.0 ? static_cast<double>(r.completed) / span_sec : 0.0;
    r.goodputQps =
        span_sec > 0.0 ? static_cast<double>(within_qos) / span_sec : 0.0;
    r.meanUtilization = util / static_cast<double>(apps.size());
    r.networkShare = (net + comp) > 0.0 ? net / (net + comp) : 0.0;
    return r;
}

LoadResult
runLoad(service::App &app, double qps, Tick warmup, Tick measure,
        const QueryMix &mix, const UserPopulation &users,
        std::uint64_t seed)
{
    return runLoadWindow({LoadSource{&app, mix, qps, seed}}, {&app}, qps,
                         warmup, measure, users, ArrivalConfig{});
}

double
findMaxQps(const std::function<bool(double)> &feasible, double lo,
           double hi, int iterations)
{
    if (hi <= lo)
        fatal("findMaxQps with hi <= lo");
    if (!feasible(lo))
        return lo;
    if (feasible(hi))
        return hi;
    double good = lo, bad = hi;
    for (int i = 0; i < iterations; ++i) {
        const double mid = 0.5 * (good + bad);
        if (feasible(mid))
            good = mid;
        else
            bad = mid;
    }
    return good;
}

} // namespace uqsim::workload
