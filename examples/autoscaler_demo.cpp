/**
 * @file
 * Example: cluster-management machinery. Runs the E-commerce site into
 * a load spike with a utilization-threshold autoscaler attached to the
 * telemetry pipeline and prints the reaction timeline.
 *
 *   $ ./build/examples/autoscaler_demo
 */

#include <iostream>

#include "apps/ecommerce.hh"
#include "core/table.hh"
#include "obs/autoscaler.hh"
#include "obs/pipeline.hh"
#include "workload/generators.hh"

using namespace uqsim;

int
main()
{
    apps::WorldConfig config;
    config.workerServers = 6;
    apps::World world(config);
    apps::buildEcommerce(world);
    service::App &app = *world.app;

    // Per-tier series every 5s; the SLO flags the first interval whose
    // front-end p99 exceeds the app's QoS target.
    obs::PipelineConfig pc;
    pc.interval = secToTicks(5.0);
    pc.slo.tier = app.entry();
    pc.slo.latency = app.config().qosLatency;
    pc.slo.window = 1;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    obs::AutoScaler::Config cfg;
    cfg.startupDelay = secToTicks(15.0);
    cfg.cooldown = secToTicks(20.0);
    obs::AutoScaler scaler(pipe, cfg, [&]() -> cpu::Server & {
        return world.nextWorker();
    });
    scaler.watchAllStateless();
    scaler.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix::fromApp(app),
        workload::UserPopulation::uniform(2000), 3);
    gen.setQps(300.0);
    gen.start();

    // Flash-sale spike at t=60s.
    world.ctx.schedule(secToTicks(60.0), [&gen] { gen.setQps(2600.0); });
    world.ctx.runUntil(secToTicks(240.0));

    TextTable table({"t(s)", "front-end p99(ms)", "orders p99(ms)",
                     "queueMaster p99(ms)", "instances added"});
    const obs::Series &fe = *pipe.store().find("front-end");
    const obs::Series &orders = *pipe.store().find("orders");
    const obs::Series &qm = *pipe.store().find("queueMaster");
    for (std::size_t i = 0; i < fe.size(); ++i) {
        const Tick end = fe.at(i).end;
        const int t = static_cast<int>(ticksToSec(end));
        if (t % 20 != 0)
            continue;
        std::size_t added = 0;
        for (const auto &e : scaler.events())
            if (e.time <= end)
                ++added;
        table.add(t, fmtDouble(ticksToMs(fe.at(i).p99), 1),
                  fmtDouble(ticksToMs(orders.at(i).p99), 1),
                  fmtDouble(ticksToMs(qm.at(i).p99), 1), added);
    }
    std::cout << "E-commerce flash sale with autoscaling "
                 "(spike at t=60s):\n";
    table.print(std::cout);

    const Tick detect = pipe.slo().firstViolationTime();
    if (detect)
        std::cout << "\nQoS violation detected at t="
                  << fmtDouble(ticksToSec(detect), 0) << "s; ";
    else
        std::cout << "\nNo QoS violation; ";
    std::cout << scaler.events().size() << " scale-outs:";
    for (const auto &e : scaler.events())
        std::cout << " " << e.service << "@t="
                  << fmtDouble(ticksToSec(e.time), 0) << "s";
    std::cout << "\nNote queueMaster: its order serialization makes it "
                 "a scaling-resistant bottleneck (Sec 7).\n";
    return 0;
}
