#include "layers.hh"

#include <algorithm>
#include <new>
#include <vector>

#include "core/event_queue.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/simulator.hh"
#include "cpu/server.hh"
#include "data/cache_model.hh"
#include "data/keyspace.hh"
#include "net/network.hh"
#include "rpc/connection_pool.hh"
#include "trace/collector.hh"
#include "workload/generators.hh"

using namespace uqsim;

namespace hostbench {

namespace {

constexpr int kBatches = 7;

/**
 * Median over kBatches of (batch wall / calls) in ns. @p batch runs
 * @p calls calls and returns the engine events they executed.
 */
template <class Batch>
CallCost
timeBatches(std::size_t calls, Batch &&batch)
{
    std::vector<double> ns;
    double events = 0.0;
    batch(calls); // warm caches, pools and lazily built state
    for (int i = 0; i < kBatches; ++i) {
        const double t0 = wallSeconds();
        events = static_cast<double>(batch(calls));
        ns.push_back((wallSeconds() - t0) * 1e9 /
                     static_cast<double>(calls));
    }
    // One more, untimed batch with allocation counting on.
    const AllocCounts a0 = allocCounts();
    setAllocCounting(true);
    batch(calls);
    setAllocCounting(false);
    const double n = static_cast<double>(calls);
    return {median(ns), events / n,
            static_cast<double>(allocCounts().calls - a0.calls) / n};
}

/** Exponential delays (>= 1 tick) with mean @p mean, precomputed. */
std::vector<Tick>
delays(Tick mean, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tick> out(n);
    for (Tick &d : out)
        d = 1 + static_cast<Tick>(
                    rng.exponential(static_cast<double>(std::max<Tick>(
                        mean, 1))));
    return out;
}

/** A queue holding @p depth pending events, plus a churn step. */
struct ChurnQueue
{
    EventQueue q;
    std::vector<Tick> gaps;
    std::size_t next = 0;
    std::uint64_t sink = 0;

    ChurnQueue(std::size_t depth, Tick mean_delay)
        : gaps(delays(mean_delay, 1 << 16, 7))
    {
        for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
            q.schedule(gap(), [this] { ++sink; });
    }

    Tick gap() { return gaps[next++ & (gaps.size() - 1)]; }

    /** Pop, dispatch and re-schedule one event; returns its time. */
    Tick
    step()
    {
        auto [when, cb] = q.popNext();
        cb();
        q.schedule(when + gap(), [this] { ++sink; });
        return when;
    }
};

} // namespace

CallCost
queueChurn(std::size_t depth, Tick mean_delay)
{
    ChurnQueue cq(depth, mean_delay);
    return timeBatches(200000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            cq.step();
        return n;
    });
}

CallCost
queueCancel(std::size_t depth, Tick mean_delay, Tick timeout)
{
    // Interleave one timer schedule+cancel with each churn step and
    // subtract plain churn measured on the same queue, batch by batch,
    // so the lazy purge of cancelled nodes is included.
    ChurnQueue cq(depth, mean_delay);
    auto churn = [&](std::size_t n, bool with_timer) {
        for (std::size_t i = 0; i < n; ++i) {
            const Tick now = cq.step();
            if (with_timer) {
                EventHandle h = cq.q.schedule(now + timeout,
                                              [&cq] { ++cq.sink; });
                h.cancel();
            }
        }
    };
    constexpr std::size_t kCalls = 200000;
    churn(kCalls, true);
    std::vector<double> diff;
    for (int i = 0; i < kBatches; ++i) {
        double t0 = wallSeconds();
        churn(kCalls, false);
        const double plain = wallSeconds() - t0;
        t0 = wallSeconds();
        churn(kCalls, true);
        const double timed = wallSeconds() - t0;
        diff.push_back((timed - plain) * 1e9 / kCalls);
    }
    return {std::max(0.0, median(diff)), 0.0, 0.0};
}

CallCost
networkSend(double bytes)
{
    Simulator sim;
    net::Network net(SimContext(sim), net::NetworkConfig{}, Rng(11));
    std::uint64_t delivered = 0;
    const Bytes size = static_cast<Bytes>(std::max(1.0, bytes));
    constexpr unsigned kServers = 12;
    unsigned k = 0;
    return timeBatches(20000, [&](std::size_t n) {
        const std::uint64_t e0 = sim.eventsExecuted();
        for (std::size_t i = 0; i < n; ++i, ++k)
            net.send(k % kServers, (k * 7 + 3) % kServers, size,
                     [&delivered](Tick, Tick) { ++delivered; });
        sim.run();
        return sim.eventsExecuted() - e0;
    });
}

CallCost
poolAcquire()
{
    rpc::ConnectionPool pool(64, /*blocking=*/true);
    std::uint64_t granted = 0;
    const CallCost c = timeBatches(500000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            pool.acquire([&granted] { ++granted; });
            pool.release();
        }
        return std::size_t{0};
    });
    if (granted == 0)
        fatal("hostbench: pool never granted");
    return c;
}

CallCost
serverExecute()
{
    Simulator sim;
    cpu::Server server(SimContext(sim), 0, cpu::CoreModel::xeon());
    std::uint64_t done = 0;
    // About 50 us of handler work at the suite's ~0.6 effective IPC.
    const Cycles cycles = 72000;
    return timeBatches(20000, [&](std::size_t n) {
        const std::uint64_t e0 = sim.eventsExecuted();
        for (std::size_t i = 0; i < n; ++i)
            server.execute(cycles, 0.6, [&done](Tick) { ++done; });
        sim.run();
        return sim.eventsExecuted() - e0;
    });
}

CallCost
traceInsert(std::size_t capacity)
{
    trace::TraceStore store(capacity);
    std::vector<trace::ServiceId> ids;
    for (int i = 0; i < 36; ++i)
        ids.push_back(store.intern("tier-" + std::to_string(i)));
    trace::Span span;
    span.end = 1000;
    std::uint64_t seq = 0;
    auto insert = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i, ++seq) {
            span.traceId = seq / 16 + 1;
            span.spanId = seq + 1;
            span.service = ids[seq % ids.size()];
            span.start = seq * 10;
            span.end = span.start + 500;
            store.insert(span);
        }
        return std::size_t{0};
    };
    insert(capacity / 2);
    return timeBatches(200000, insert);
}

CallCost
cacheAccess()
{
    data::KeyspaceConfig kc;
    kc.keys = 200000;
    kc.popularity = data::Popularity::Zipf;
    kc.zipfS = 1.0;
    const data::Keyspace keyspace(kc);
    Rng rng(5);
    std::vector<std::uint64_t> keys(1 << 16);
    for (auto &key : keys)
        key = keyspace.sampleKey(rng, 0);
    data::CacheModelConfig cc;
    cc.capacity = 8192;
    data::CacheModel cache(cc);
    std::size_t k = 0;
    std::uint64_t hits = 0;
    auto access = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            hits += cache.access(keys[k++ & (keys.size() - 1)], 0);
        return std::size_t{0};
    };
    access(keys.size()); // warm the store before timing
    const CallCost c = timeBatches(200000, access);
    if (hits == 0)
        fatal("hostbench: cache never hit");
    return c;
}

CallCost
allocPair()
{
    static constexpr std::size_t kSizes[] = {32, 48, 64, 96, 128, 256};
    std::vector<void *> live(64);
    return timeBatches(640000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; i += live.size()) {
            for (std::size_t j = 0; j < live.size(); ++j)
                live[j] = ::operator new(kSizes[(i + j) % 6]);
            for (void *p : live)
                ::operator delete(p);
        }
        return std::size_t{0};
    });
}

CallCost
serviceRequest(const Workload &w, const Seeds &seeds)
{
    // The workload's own set-up, on one shard and without telemetry,
    // so the engine idles between requests.
    Variant idle;
    idle.shards = 1;
    idle.threads = 1;
    idle.telemetry = false;
    auto b = setUp(w, seeds, idle, nullptr);
    ParallelSimulator &engine = b->world->engine();
    service::App &app = *b->world->shard(0).app;
    const workload::QueryMix mix = workload::QueryMix::fromApp(app);
    Rng rng(seeds.load);
    return timeBatches(1000, [&](std::size_t n) {
        const std::uint64_t e0 = engine.eventsExecuted();
        for (std::size_t i = 0; i < n; ++i) {
            app.inject(mix.sample(rng), b->load.users.sample(rng));
            engine.run();
        }
        return engine.eventsExecuted() - e0;
    });
}

} // namespace hostbench
