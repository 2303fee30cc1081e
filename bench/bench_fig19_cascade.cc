/**
 * @file
 * Fig 19: cascading QoS violations in the Social Network. A back-end
 * hotspot (the server hosting the post/timeline storage shards slows
 * down) propagates upstream tier by tier until the front-end violates
 * QoS, while per-tier CPU utilization stays misleading: high-utilization
 * middle tiers are healthy and low-utilization tiers are the ones
 * blocked on the saturated back-end.
 */

#include <algorithm>
#include <map>

#include "bench_common.hh"
#include "obs/culprit.hh"
#include "obs/pipeline.hh"
#include "trace/analysis.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

/** Order tiers back-end (top) to front-end (bottom), as in the figure. */
const std::vector<std::string> kTierOrder = {
    "posts-db",      "timeline-db",   "posts-memcached",
    "timeline-memcached", "writeTimeline", "postsStorage",
    "readPost",      "readTimeline",  "composePost",
    "php-fpm",       "nginx-lb",
};

/**
 * Baseline mean latency per tier: the median of the interval means
 * over the first @p samples intervals that saw traffic, the
 * denominator of the "latency increase %" view.
 */
std::map<std::string, double>
baselineLatency(const obs::TimeSeriesStore &store, std::size_t samples)
{
    std::map<std::string, double> out;
    for (const std::string &name : store.names()) {
        const obs::Series &series = *store.find(name);
        std::vector<double> means;
        for (std::size_t i = 0; i < std::min(samples, series.size()); ++i)
            if (series.at(i).meanLatencyNs > 0.0)
                means.push_back(series.at(i).meanLatencyNs);
        if (means.empty())
            continue;
        std::sort(means.begin(), means.end());
        out[name] = means[means.size() / 2];
    }
    return out;
}

/** The sample of @p series closing at @p end, or null. */
const obs::IntervalSample *
sampleEndingAt(const obs::Series &series, Tick end)
{
    for (std::size_t i = 0; i < series.size(); ++i)
        if (series.at(i).end == end)
            return &series.at(i);
    return nullptr;
}

} // namespace

int
main()
{
    header("Fig 19: cascading QoS violations",
           "a back-end hotspot propagates to the front-end; utilization "
           "is misleading (high-util middle tiers are not the culprits)");

    auto w = makeWorld(6);
    apps::AppOptions opt;
    opt.instancesPerTier = 1;
    apps::buildSocialNetwork(*w, opt);
    service::App &app = *w->app;

    // The online observability pipeline watches the run: per-tier
    // interval series for the latency and utilization grids, plus an
    // SLO on end-to-end latency, so the localizer can answer "which
    // tier degraded first" afterwards.
    obs::PipelineConfig pc;
    pc.interval = secToTicks(1.0);
    pc.ring = 256;
    pc.slo.latency = 20 * kTicksPerMs;
    pc.slo.window = 3;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix::fromApp(app),
        workload::UserPopulation::uniform(500), 3);
    gen.setQps(1400.0);
    gen.start();

    // Healthy period, then the hotspot: the server hosting the first
    // posts-db shard becomes slow (e.g. co-scheduled antagonist).
    w->ctx.runUntil(secToTicks(60.0));
    const unsigned hot_server =
        app.service("posts-db").instances()[0]->server().id();
    w->cluster.server(hot_server).setSlowFactor(14.0);
    w->ctx.runUntil(secToTicks(180.0));

    // Baseline over the healthy first 50 s.
    const auto baseline = baselineLatency(pipe.store(), 50);

    // (a) latency increase over baseline, per tier over time.
    TextTable lat({"tier \\ t(s)", "30", "60", "90", "120", "150", "180"});
    TextTable util({"tier \\ t(s)", "30", "60", "90", "120", "150", "180"});
    for (const std::string &tier : kTierOrder) {
        std::vector<std::string> lrow{tier}, urow{tier};
        for (int t : {30, 60, 90, 120, 150, 180}) {
            const obs::IntervalSample *sample = sampleEndingAt(
                *pipe.store().find(tier),
                secToTicks(static_cast<double>(t)));
            if (!sample || !baseline.count(tier)) {
                lrow.push_back("-");
                urow.push_back("-");
                continue;
            }
            const double incr =
                100.0 * (sample->meanLatencyNs / baseline.at(tier) - 1.0);
            lrow.push_back(fmtDouble(std::max(0.0, incr), 0) + "%");
            urow.push_back(fmtDouble(100.0 * sample->occupancy, 0) + "%");
        }
        lat.addRow(lrow);
        util.addRow(urow);
    }
    printBanner(std::cout,
                "(a) latency increase vs baseline (hotspot at t=60s, "
                "back-end rows on top)");
    lat.print(std::cout);
    printBanner(std::cout,
                "(b) per-tier utilization (worker-thread occupancy)");
    util.print(std::cout);
    std::cout << "\nExpect the latency hotspot to start in the top rows "
                 "after t=60s and spread downward to nginx-lb, while "
                 "utilization alone cannot identify posts-db as the "
                 "culprit.\n";

    // (c) What the interval series say: the end-to-end SLO trips some
    // time after the hotspot, and the culprit localizer ranks tiers by
    // degradation onset — the tiers hosted on the slow server must
    // lead, with positive lead time over the user-visible violation.
    printBanner(std::cout, "(c) slo violation and culprit ranking");
    if (!pipe.slo().violated()) {
        std::cout << "no SLO violation recorded (unexpected)\n";
        return 1;
    }
    const obs::SloViolation &v = pipe.slo().violations().front();
    std::cout << "e2e p99 SLO (20ms) tripped at t="
              << fmtDouble(ticksToSec(v.time), 0) << "s (onset t="
              << fmtDouble(ticksToSec(v.onset), 0) << "s; hotspot at "
              << "t=60s on server " << hot_server << ")\n";
    trace::TraceAnalysis ta(app.traceStore());
    obs::CulpritLocalizer loc(pipe.store());
    const auto ranking =
        loc.localize(pipe.slo().firstViolationTime(),
                     obs::CulpritLocalizer::tierDepths(app),
                     ta.criticalPathBreakdown());
    std::cout << obs::culpritTable(ranking);
    if (!ranking.empty()) {
        const std::string &top = ranking.front().tier;
        const unsigned top_server = app.service(top)
                                        .instances()[0]
                                        ->server()
                                        .id();
        std::cout << "top culprit: " << top << " (hosted on server "
                  << top_server << ", hot server is " << hot_server
                  << ")\n";
    }
    return 0;
}
