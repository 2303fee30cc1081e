/**
 * @file
 * Backpressure property tests (the Sec 6 mechanism): a slow callee
 * behind a blocking HTTP/1 pool parks the caller's worker threads, so
 * the caller looks saturated (high occupancy, long queues) while its
 * CPU idles - the signal combination that fools utilization-based
 * autoscalers in Fig 17B. The autoscaler tests close the loop: the
 * occupancy-driven scaler fixes genuine front-end saturation (Fig 17A)
 * and scales the blocked front-end, to no avail, when the back-end is
 * the bottleneck (Fig 17B).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "apps/builder.hh"
#include "obs/autoscaler.hh"
#include "obs/pipeline.hh"
#include "service/app.hh"
#include "workload/generators.hh"

namespace uqsim::service {
namespace {

struct TwoTier
{
    /** nginx defaults to ~21us of work on 32 threads. */
    TwoTier(bool blocking, double backend_us,
            double frontend_cycles = 30000.0,
            unsigned frontend_threads = 32)
        : world(makeConfig())
    {
        App &app = *world.app;
        ServiceDef back;
        back.name = "memcached";
        back.handler.compute(
            Dist::constant(backend_us * 1440.0));
        back.threadsPerInstance = 8;
        back.protocol = blocking ? rpc::ProtocolModel::restHttp1()
                                 : rpc::ProtocolModel::thrift();
        back.protocol.connectionsPerPair = 4;
        app.addService(std::move(back)).addInstance(world.worker(1));

        ServiceDef front;
        front.name = "nginx";
        front.kind = ServiceKind::Frontend;
        front.handler.compute(Dist::constant(frontend_cycles))
            .call("memcached");
        front.threadsPerInstance = frontend_threads;
        app.addService(std::move(front)).addInstance(world.worker(0));
        app.setEntry("nginx");
        app.addQueryType({"read", 1, 1.0, 0, {}});
        app.validate();
    }

    static apps::WorldConfig
    makeConfig()
    {
        apps::WorldConfig c;
        c.workerServers = 2;
        return c;
    }

    apps::World world;
};

TEST(BackpressureTest, SlowCalleeParksCallerThreads)
{
    // memcached "slightly degraded": ~3.6ms per op, 4 connections:
    // the pool's throughput ceiling is ~1.1k op/s, far below the
    // offered 2.5k QPS, so requests back up inside nginx.
    TwoTier t(/*blocking=*/true, /*backend_us=*/3000.0);
    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(2500.0);
    gen.start();
    t.world.ctx.runFor(2 * kTicksPerSec);

    Microservice &nginx = t.world.app->service("nginx");
    Microservice &mc = t.world.app->service("memcached");
    // nginx *appears* saturated: most worker threads occupied.
    EXPECT_GT(nginx.meanOccupancy(), 0.7);
    // ...but its CPU is nearly idle (it is just blocked).
    const double nginx_cpu =
        static_cast<double>(
            nginx.instances()[0]->cpuBusyTime()) /
        static_cast<double>(t.world.ctx.now());
    EXPECT_LT(nginx_cpu, 0.2 * nginx.def().threadsPerInstance);
    // memcached itself is NOT thread-saturated: the connection limit
    // throttles it below its own capacity.
    EXPECT_LT(mc.meanOccupancy(), 0.9);
}

TEST(BackpressureTest, NonBlockingProtocolAvoidsThreadParking)
{
    TwoTier blocking(true, 3000.0);
    TwoTier rpc(false, 3000.0);
    for (TwoTier *t : {&blocking, &rpc}) {
        workload::OpenLoopGenerator gen(
            *t->world.app, workload::QueryMix({1.0}),
            workload::UserPopulation::uniform(100), 1);
        gen.setQps(2000.0);
        gen.start();
        t->world.ctx.runFor(2 * kTicksPerSec);
    }
    // With multiplexed RPC, nginx threads wait on actual service time
    // only; occupancy stays lower than in the blocked configuration.
    EXPECT_LT(rpc.world.app->service("nginx").meanOccupancy(),
              blocking.world.app->service("nginx").meanOccupancy());
}

TEST(BackpressureTest, HealthyBackendKeepsLatencyFlat)
{
    TwoTier t(true, /*backend_us=*/80.0);
    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(800.0);
    gen.start();
    t.world.ctx.runFor(2 * kTicksPerSec);
    EXPECT_LT(t.world.app->endToEndLatency().p99(), 2 * kTicksPerMs);
    EXPECT_LT(t.world.app->service("nginx").meanOccupancy(), 0.3);
}

TEST(BackpressureTest, PoolWaitersAccumulateUnderOverload)
{
    TwoTier t(true, 3000.0);
    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(3000.0);
    gen.start();
    t.world.ctx.runFor(kTicksPerSec);
    // End-to-end tail blows up (Fig 17B's latency explosion).
    EXPECT_GT(t.world.app->endToEndLatency().p99(), 10 * kTicksPerMs);
}

/** One autoscaled run: the scaler's decisions and nginx's series. */
struct ScaledRun
{
    std::vector<obs::ScaleEvent> events;
    /** nginx interval samples, oldest first. */
    std::vector<obs::IntervalSample> nginx;
};

constexpr Tick kStepAt = kTicksPerSec;
constexpr Tick kTarget = 5 * kTicksPerMs;

/**
 * Drive @p t at @p qps with the occupancy scaler watching nginx and
 * placing new instances on server @p spare; apply @p step at kStepAt
 * and run to 5 s.
 */
ScaledRun
runAutoscaled(TwoTier &t, double qps, unsigned spare,
              const std::function<void(workload::OpenLoopGenerator &)>
                  &step)
{
    App &app = *t.world.app;
    obs::PipelineConfig pc;
    pc.interval = 250 * kTicksPerMs;
    obs::Pipeline pipe(app, pc);
    pipe.start();
    obs::AutoScaler::Config cfg;
    cfg.startupDelay = 500 * kTicksPerMs;
    cfg.cooldown = kTicksPerSec;
    obs::AutoScaler scaler(pipe, cfg, [&]() -> cpu::Server & {
        return t.world.worker(spare);
    });
    scaler.watch("nginx");
    scaler.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(qps);
    gen.start();
    t.world.ctx.runUntil(kStepAt);
    step(gen);
    t.world.ctx.runUntil(5 * kTicksPerSec);

    ScaledRun out;
    out.events = scaler.events();
    const obs::Series &nginx = *pipe.store().find("nginx");
    for (std::size_t i = 0; i < nginx.size(); ++i)
        out.nginx.push_back(nginx.at(i));
    return out;
}

TEST(BackpressureTest, ScalingTheSaturatedFrontendRestoresQos)
{
    // Fig 17 case A: nginx itself is the bottleneck (1ms of work on 8
    // threads, ~6k QPS) and the load steps past it. Its threads fill,
    // the scaler adds nginx, and the tail comes back under the target.
    TwoTier t(/*blocking=*/true, /*backend_us=*/80.0,
              /*frontend_cycles=*/1000.0 * 1440.0, /*frontend_threads=*/8);
    const ScaledRun r =
        runAutoscaled(t, 2000.0, /*spare=*/0,
                      [](workload::OpenLoopGenerator &gen) {
                          gen.setQps(9000.0);
                      });
    ASSERT_FALSE(r.events.empty());
    EXPECT_EQ(r.events.front().service, "nginx");
    bool violated = false;
    for (const obs::IntervalSample &s : r.nginx)
        violated |= s.end > kStepAt && s.p99 > kTarget;
    EXPECT_TRUE(violated) << "the load step never saturated nginx";
    EXPECT_LE(r.nginx.back().p99, kTarget)
        << "scaling out nginx did not restore the target";
}

TEST(BackpressureTest, ScalingTheBlockedFrontendDoesNotRecover)
{
    // Fig 17 case B: memcached's server slows 100x, capping memcached
    // far below the offered load. nginx's threads park on the HTTP/1
    // pool, so nginx looks saturated with an idle CPU; the scaler adds
    // nginx instances, which only feed the real bottleneck, and
    // nginx's tail never returns under the target.
    TwoTier t(/*blocking=*/true, /*backend_us=*/80.0);
    App &app = *t.world.app;
    const unsigned mc_server =
        app.service("memcached").instances()[0]->server().id();
    const ScaledRun r =
        runAutoscaled(t, 3000.0, /*spare=*/0,
                      [&](workload::OpenLoopGenerator &) {
                          t.world.cluster.server(mc_server)
                              .setSlowFactor(100.0);
                      });
    ASSERT_FALSE(r.events.empty());
    for (const obs::ScaleEvent &e : r.events)
        EXPECT_EQ(e.service, "nginx");
    const Tick first_scale = r.events.front().time;
    for (const obs::IntervalSample &s : r.nginx) {
        if (s.end == first_scale) {
            EXPECT_GE(s.occupancy, obs::AutoScaler::kThreshold);
            EXPECT_LT(s.utilization, 0.2) << "nginx should be blocked";
        }
        if (s.end > first_scale) {
            EXPECT_GT(s.p99, kTarget) << "recovered at " << s.end;
        }
    }
}

} // namespace
} // namespace uqsim::service
