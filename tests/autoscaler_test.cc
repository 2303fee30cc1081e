/**
 * @file
 * Tests for the cluster-management path over the obs pipeline: the
 * interval series a cluster monitor reads (MonitorTest) and the
 * threshold autoscaler acting on them, including its digest contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/builder.hh"
#include "apps/scenario.hh"
#include "obs/autoscaler.hh"
#include "obs/pipeline.hh"
#include "workload/generators.hh"

namespace uqsim::obs {
namespace {

apps::WorldConfig
smallConfig()
{
    apps::WorldConfig c;
    c.workerServers = 4;
    return c;
}

void
buildOneTier(apps::World &w, double work_us, unsigned threads)
{
    service::ServiceDef front;
    front.name = "front";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(Dist::exponential(work_us * 1440.0));
    front.threadsPerInstance = threads;
    w.app->addService(std::move(front)).addInstance(w.worker(0));
    w.app->setEntry("front");
    w.app->addQueryType({"q", 1, 1.0, 0, {}});
    w.app->setQosLatency(5 * kTicksPerMs);
    w.app->validate();
}

PipelineConfig
sampledEvery(Tick interval)
{
    PipelineConfig c;
    c.interval = interval;
    return c;
}

// -- The series a cluster monitor reads ----------------------------------

TEST(MonitorTest, SamplesOnInterval)
{
    apps::World w(smallConfig());
    buildOneTier(w, 200.0, 16);
    Pipeline pipe(*w.app, sampledEvery(100 * kTicksPerMs));
    pipe.start();
    w.ctx.runFor(kTicksPerSec);
    const Series *front = pipe.store().find("front");
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(front->size(), 10u);
    EXPECT_EQ(front->latest().end, kTicksPerSec);
}

TEST(MonitorTest, LatencyAndUtilizationUnderLoad)
{
    apps::World w(smallConfig());
    buildOneTier(w, 400.0, 16);
    Pipeline pipe(*w.app, sampledEvery(100 * kTicksPerMs));
    pipe.start();
    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(2000.0);
    gen.start();
    w.ctx.runFor(2 * kTicksPerSec);
    const IntervalSample &s = pipe.store().find("front")->latest();
    EXPECT_GT(s.p99, 0u);
    EXPECT_GT(s.utilization, 0.02);
    EXPECT_GT(s.occupancy, 0.0);
}

TEST(MonitorTest, BaselineLatencyFromEarlyRounds)
{
    apps::World w(smallConfig());
    buildOneTier(w, 200.0, 16);
    Pipeline pipe(*w.app, sampledEvery(100 * kTicksPerMs));
    pipe.start();
    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(500.0);
    gen.start();
    w.ctx.runFor(kTicksPerSec);
    // The early rounds carry the per-tier mean a "latency increase
    // over baseline" view (Figs 19/22a) divides by.
    const Series *front = pipe.store().find("front");
    ASSERT_GE(front->size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_GT(front->at(i).meanLatencyNs, 0.0) << "round " << i;
}

// -- The autoscaler --------------------------------------------------------

TEST(AutoScalerTest, ScalesOutUnderSaturation)
{
    apps::World w(smallConfig());
    buildOneTier(w, 500.0, 4); // 4 threads: saturates quickly
    Pipeline pipe(*w.app, sampledEvery(200 * kTicksPerMs));
    pipe.start();
    AutoScaler::Config cfg;
    cfg.startupDelay = 300 * kTicksPerMs;
    cfg.cooldown = 500 * kTicksPerMs;
    AutoScaler scaler(pipe, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();

    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(6000.0);
    gen.start();
    w.ctx.runFor(5 * kTicksPerSec);
    ASSERT_GT(scaler.events().size(), 0u);
    EXPECT_GE(scaler.events().front().occupancy, AutoScaler::kThreshold);
    EXPECT_GT(w.app->service("front").instances().size(), 1u);
    // New instances eventually become active.
    EXPECT_GT(w.app->service("front").activeInstances(), 1u);
    EXPECT_EQ(w.app->metrics().counter("autoscaler.scale_outs").value(),
              scaler.events().size());
}

TEST(AutoScalerTest, NoScalingWhenIdle)
{
    apps::World w(smallConfig());
    buildOneTier(w, 200.0, 16);
    Pipeline pipe(*w.app, sampledEvery(100 * kTicksPerMs));
    pipe.start();
    AutoScaler scaler(pipe, AutoScaler::Config{},
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();
    w.ctx.runFor(3 * kTicksPerSec);
    EXPECT_EQ(scaler.events().size(), 0u);
}

TEST(AutoScalerTest, CooldownLimitsRate)
{
    apps::World w(smallConfig());
    buildOneTier(w, 500.0, 2);
    Pipeline pipe(*w.app, sampledEvery(100 * kTicksPerMs));
    pipe.start();
    AutoScaler::Config cfg;
    cfg.cooldown = 2 * kTicksPerSec;
    cfg.startupDelay = 10 * kTicksPerSec; // never activates in test
    AutoScaler scaler(pipe, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();
    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(8000.0);
    gen.start();
    w.ctx.runFor(4 * kTicksPerSec);
    // Saturated every round, yet at most one scale-out per cooldown.
    EXPECT_GE(scaler.events().size(), 1u);
    EXPECT_LE(scaler.events().size(), 2u); // 4s / 2s cooldown
}

TEST(AutoScalerTest, ScaleBudgetLimitsPerRound)
{
    // Two saturated tiers, budget of one scale-out per round: the
    // scaler must alternate instead of upsizing both at once.
    apps::World w(smallConfig());
    service::App &app = *w.app;
    for (const char *name : {"a", "b"}) {
        service::ServiceDef def;
        def.name = name;
        def.handler.compute(Dist::exponential(500.0 * 1440.0));
        def.threadsPerInstance = 2;
        app.addService(std::move(def)).addInstance(w.worker(0));
    }
    service::ServiceDef fe;
    fe.name = "fe";
    fe.kind = service::ServiceKind::Frontend;
    fe.handler.call("a").call("b");
    fe.threadsPerInstance = 64;
    app.addService(std::move(fe)).addInstance(w.worker(1));
    app.setEntry("fe");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();

    Pipeline pipe(app, sampledEvery(100 * kTicksPerMs));
    pipe.start();
    AutoScaler::Config cfg;
    cfg.cooldown = 100 * kTicksPerMs;
    cfg.startupDelay = 10 * kTicksPerSec; // stay saturated in-test
    cfg.maxScaleOutsPerRound = 1;
    AutoScaler scaler(pipe, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("a");
    scaler.watch("b");
    scaler.start();

    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(8000.0);
    gen.start();
    w.ctx.runFor(kTicksPerSec);
    // >= 2 rounds happened; with budget 1 no two events share a tick.
    const auto &events = scaler.events();
    ASSERT_GE(events.size(), 2u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].time, events[i - 1].time);
}

// -- Digest contract -------------------------------------------------------

/**
 * The pinned default run (`uqsim_run --app social-network`), with a
 * pipeline and an autoscaler watching every stateless tier attached.
 */
std::uint64_t
defaultRunDigest(bool start_scaler)
{
    const apps::Scenario scn;
    apps::WorldHandle w(apps::worldConfigFor(scn), 1, 1);
    apps::World &world = w.shard(0);
    apps::buildScenarioApp(world, scn);
    Pipeline pipe(*world.app, PipelineConfig{});
    pipe.start();
    AutoScaler scaler(pipe, AutoScaler::Config{},
                      [&]() -> cpu::Server & { return world.nextWorker(); });
    scaler.watchAllStateless();
    if (start_scaler)
        scaler.start();
    apps::LoadSpec load;
    load.qps = scn.qps;
    load.warmup = secToTicks(scn.warmupSec);
    load.measure = secToTicks(scn.durationSec);
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    apps::runWorld(w, load);
    return w.engine().executionDigest();
}

TEST(AutoScalerTest, UnstartedScalerKeepsThePinnedDigest)
{
    EXPECT_EQ(defaultRunDigest(false), 0x3e4c3130724e0248ull);
    // Started, its decision events enter the queue: a different run.
    EXPECT_NE(defaultRunDigest(true), 0x3e4c3130724e0248ull);
}

struct ScaledRun
{
    std::vector<ScaleEvent> events;
    std::uint64_t digest = 0;
};

ScaledRun
saturatedRun()
{
    apps::World w(smallConfig());
    buildOneTier(w, 500.0, 4);
    Pipeline pipe(*w.app, sampledEvery(200 * kTicksPerMs));
    pipe.start();
    AutoScaler::Config cfg;
    cfg.startupDelay = 300 * kTicksPerMs;
    cfg.cooldown = 500 * kTicksPerMs;
    AutoScaler scaler(pipe, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();
    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(6000.0);
    gen.start();
    w.ctx.runFor(3 * kTicksPerSec);
    return ScaledRun{scaler.events(), w.ctx.executionDigest()};
}

TEST(AutoScalerTest, SameSeedRunsScaleIdentically)
{
    const ScaledRun a = saturatedRun();
    const ScaledRun b = saturatedRun();
    ASSERT_FALSE(a.events.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].time, b.events[i].time);
        EXPECT_EQ(a.events[i].service, b.events[i].service);
        EXPECT_EQ(a.events[i].newInstanceCount,
                  b.events[i].newInstanceCount);
        EXPECT_EQ(a.events[i].occupancy, b.events[i].occupancy);
    }
    EXPECT_EQ(a.digest, b.digest);
}

} // namespace
} // namespace uqsim::obs
