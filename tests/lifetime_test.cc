/**
 * @file
 * Lifetime test: a destroyed world gives back every allocation it
 * made, including the state of requests still in flight when its run
 * stopped — a standalone World, and partitioned WorldHandles whose
 * engine queues must outlive the apps whose pooled attempts they hold,
 * one of them with late cross-shard replies to settled attempts. The
 * global allocator is replaced by a live-allocation counter (plus a
 * running total, for the request path's allocation budget), so this
 * file builds as its own test executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/builder.hh"
#include "apps/scenario.hh"
#include "apps/social_network.hh"
#include "service/app.hh"
#include "workload/generators.hh"

namespace {

std::atomic<long long> g_live{0};
/** Allocations ever made (never decremented). */
std::atomic<long long> g_total{0};

void *
countedAlloc(std::size_t size)
{
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p) {
        g_live.fetch_add(1, std::memory_order_relaxed);
        g_total.fetch_add(1, std::memory_order_relaxed);
    }
    return p;
}

void
countedFree(void *p)
{
    if (!p)
        return;
    g_live.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace uqsim::service {
namespace {

/** What one run did, read before its world is destroyed. */
struct RunStats
{
    std::uint64_t injected = 0;
    std::uint64_t finished = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
};

ServiceDef
tier(const char *name, ServiceKind kind, double cycles)
{
    ServiceDef def;
    def.name = name;
    def.kind = kind;
    def.handler.compute(Dist::exponential(cycles));
    def.threadsPerInstance = 4;
    return def;
}

/**
 * Build a world whose handlers use sequential and parallel call
 * stages, a cache stage and a retried RPC that times out; offer it
 * open-loop load and stop the run while requests are in flight.
 */
RunStats
runWorld()
{
    apps::WorldConfig config;
    config.workerServers = 3;
    config.seed = 11;
    apps::World world(config);
    App &app = *world.app;

    app.addService(tier("leaf", ServiceKind::Stateless, 20000.0))
        .addInstance(world.worker(2));
    app.addService(tier("cache", ServiceKind::Cache, 5000.0))
        .addInstance(world.worker(2));
    app.addService(tier("db", ServiceKind::Database, 60000.0))
        .addInstance(world.worker(1));
    // Often slower than its timeout: timed-out attempts retry, and the
    // late replies of the abandoned ones still arrive.
    ServiceDef slow = tier("slow", ServiceKind::Stateless, 150000.0);
    slow.resilience.timeout = 100 * kTicksPerUs;
    slow.resilience.retry.maxAttempts = 3;
    slow.resilience.retry.baseBackoff = 20 * kTicksPerUs;
    app.addService(std::move(slow)).addInstance(world.worker(1));

    ServiceDef mid = tier("mid", ServiceKind::Stateless, 30000.0);
    mid.handler.call("leaf", 2)
        .parallelCall("leaf", 3)
        .cache("cache", "db", 0.5)
        .call("slow");
    app.addService(std::move(mid)).addInstance(world.worker(0));
    ServiceDef front = tier("front", ServiceKind::Frontend, 20000.0);
    front.handler.call("mid");
    app.addService(std::move(front)).addInstance(world.worker(0));

    app.setEntry("front");
    app.addQueryType({"q", 1.0, 1.0, 0, {}});
    app.validate();
    app.enableCrashTracking();

    for (unsigned i = 0; i < 400; ++i)
        world.ctx.scheduleAt(i * 25 * kTicksPerUs,
                             [&app, i]() { app.inject(0, i); });
    world.ctx.runUntil(6 * kTicksPerMs);

    RunStats stats;
    stats.injected = app.injected();
    stats.finished = app.completed() + app.failedRequests() +
                     app.droppedRequests();
    stats.timeouts = app.metrics().counter("rpc.timeouts").value();
    stats.retries = app.metrics().counter("rpc.retries").value();
    return stats;
}

TEST(LifetimeTest, DestroyedWorldReturnsEveryAllocation)
{
    runWorld(); // settles lazily built statics
    const long long before = g_live.load();
    const RunStats stats = runWorld();
    const long long after = g_live.load();

    EXPECT_GT(stats.finished, 0u);
    EXPECT_GT(stats.injected, stats.finished); // some still in flight
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(after, before);
}

/**
 * Deploy social-network as one world partitioned over 4 shards, drive
 * it with runWorld() on 2 worker threads, and stop with cross-shard
 * calls in flight. With @p late_replies, every RPC gets a 2 ms timeout
 * and two retries, and the cached tiers sit on a shard of their own:
 * many cross-shard replies then land after their attempt settled.
 */
RunStats
runPartitionedWorld(bool late_replies)
{
    apps::Scenario scn;
    scn.app = "social-network";
    scn.shards = 4;
    scn.threads = 2;
    scn.placement = "partition";
    scn.qps = 2000.0;
    scn.warmupSec = 0.05;
    scn.durationSec = 0.2;
    if (late_replies) {
        scn.pins = {{"posts-memcached", 1}, {"posts-db", 1}};
        scn.dataKeys = 20000;
        scn.rpcTimeout = 2 * kTicksPerMs;
        scn.retries = 2;
    }
    std::string error;
    if (!apps::validateScenario(scn, error))
        ADD_FAILURE() << error;
    apps::ScenarioWorld run(scn);
    apps::runWorld(run.world, run.load);

    RunStats stats;
    for (unsigned i = 0; i < run.world.shards(); ++i) {
        App &app = *run.world.shard(i).app;
        stats.injected += app.injected();
        stats.finished += app.completed() + app.failedRequests() +
                          app.droppedRequests();
        stats.timeouts += app.metrics().counter("rpc.timeouts").value();
        stats.retries += app.metrics().counter("rpc.retries").value();
    }
    return stats;
}

TEST(LifetimeTest, DestroyedPartitionedWorldReturnsEveryAllocation)
{
    runPartitionedWorld(false); // settles lazily built statics
    const long long before = g_live.load();
    const RunStats stats = runPartitionedWorld(false);
    const long long after = g_live.load();

    EXPECT_GT(stats.finished, 0u);
    EXPECT_EQ(after, before);
}

TEST(LifetimeTest, PartitionedLateRepliesReturnEveryAllocation)
{
    runPartitionedWorld(true); // settles lazily built statics
    const long long before = g_live.load();
    const RunStats stats = runPartitionedWorld(true);
    const long long after = g_live.load();

    EXPECT_GT(stats.finished, 0u);
    // Timed-out cross-shard attempts: their replies arrive late, to a
    // settled (and possibly recycled) attempt slot.
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(after, before);
}

/**
 * The request path's allocation budget: social-network at a fixed
 * seed, with tracing on, warmed up so pools, rings and slot tables
 * have grown, then measured. Pooled attempts and handler contexts,
 * inline callbacks and grow-only queues leave about one allocation
 * per request (the Request itself); the bound leaves room for the
 * trace store's amortized growth and rare pool chunks.
 */
TEST(LifetimeTest, SteadyStateAllocationsPerRequest)
{
    apps::WorldConfig config;
    config.seed = 5;
    apps::World world(config);
    apps::buildSocialNetwork(world);
    workload::OpenLoopGenerator gen(
        *world.app, workload::QueryMix::fromApp(*world.app),
        workload::UserPopulation::uniform(1000), 6);
    gen.setQps(1000.0);
    gen.start();

    world.ctx.runUntil(500 * kTicksPerMs);
    const std::uint64_t injected_before = world.app->injected();
    const long long allocs_before = g_total.load();
    world.ctx.runUntil(1500 * kTicksPerMs);
    const long long allocs = g_total.load() - allocs_before;
    const std::uint64_t injected =
        world.app->injected() - injected_before;
    gen.stop();

    ASSERT_GT(injected, 500u);
    const double per_request =
        static_cast<double>(allocs) / static_cast<double>(injected);
    EXPECT_LT(per_request, 50.0)
        << allocs << " allocations over " << injected << " requests";
}

} // namespace
} // namespace uqsim::service
