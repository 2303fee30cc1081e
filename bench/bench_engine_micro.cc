/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event queue throughput, RNG draws, histogram recording, and
 * end-to-end cost per simulated request on the Social Network graph.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "apps/social_network.hh"
#include "core/histogram.hh"
#include "core/rng.hh"
#include "core/simulator.hh"
#include "workload/generators.hh"

using namespace uqsim;

namespace {

/**
 * The pre-ladder-queue scheduler, kept as an in-bench baseline: a
 * std::priority_queue of entries with one shared_ptr cancellation
 * state allocated per event, and the std::function callback it used
 * (copied out of priority_queue::top(), so it must be copyable). Used
 * to quantify the ladder queue's speedup on identical workloads
 * (BM_EventChurn_* below).
 */
class BaselineHeapQueue
{
  public:
    struct State
    {
        bool cancelled = false;
    };
    using Handle = std::shared_ptr<State>;
    using Callback = std::function<void()>;

    Handle
    schedule(Tick when, Callback cb)
    {
        auto state = std::make_shared<State>();
        heap_.push(Entry{when, nextSeq_++, std::move(cb), state});
        ++live_;
        return state;
    }

    void
    cancel(const Handle &h)
    {
        if (h && !h->cancelled) {
            h->cancelled = true;
            --live_;
        }
    }

    bool empty() const { return live_ == 0; }

    std::pair<Tick, Callback>
    popNext()
    {
        while (heap_.top().state->cancelled)
            heap_.pop();
        Entry entry = heap_.top();
        heap_.pop();
        --live_;
        return {entry.when, std::move(entry.cb)};
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        std::shared_ptr<State> state;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t live_ = 0;
};

/** Adapter giving EventQueue the same driver surface as the baseline. */
class LadderQueueDriver
{
  public:
    EventHandle
    schedule(Tick when, EventCallback cb)
    {
        return queue_.schedule(when, std::move(cb));
    }

    void cancel(EventHandle &h) { h.cancel(); }
    bool empty() const { return queue_.empty(); }
    std::pair<Tick, EventCallback> popNext() { return queue_.popNext(); }

  private:
    EventQueue queue_;
};

/**
 * Steady-state churn: keep @p depth events in flight; every pop
 * schedules a successor a short exponential-ish delay ahead, the DES
 * pattern every service/network model produces. Executes @p events
 * events total.
 */
template <class Queue>
void
runChurn(Queue &q, std::uint64_t events, unsigned depth, Rng &rng)
{
    Tick now = 0;
    for (unsigned i = 0; i < depth; ++i)
        q.schedule(1 + rng.uniformInt(2000), [] {});
    for (std::uint64_t done = 0; done < events; ++done) {
        auto [when, cb] = q.popNext();
        now = when;
        cb();
        q.schedule(now + 1 + rng.uniformInt(2000), [] {});
    }
}

/** Churn with one extra schedule+cancel per pop (timeout pattern). */
template <class Queue>
void
runChurnCancel(Queue &q, std::uint64_t events, unsigned depth, Rng &rng)
{
    Tick now = 0;
    for (unsigned i = 0; i < depth; ++i)
        q.schedule(1 + rng.uniformInt(2000), [] {});
    for (std::uint64_t done = 0; done < events; ++done) {
        auto [when, cb] = q.popNext();
        now = when;
        cb();
        q.schedule(now + 1 + rng.uniformInt(2000), [] {});
        auto timeout = q.schedule(now + 5000 + rng.uniformInt(5000), [] {});
        q.cancel(timeout);
    }
}

constexpr std::uint64_t kChurnEvents = 1'000'000;
constexpr unsigned kChurnDepth = 4096;

} // namespace

static void
BM_EventChurn_Ladder(benchmark::State &state)
{
    for (auto _ : state) {
        LadderQueueDriver q;
        Rng rng(11);
        runChurn(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurn_Ladder)->Unit(benchmark::kMillisecond);

static void
BM_EventChurn_HeapBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        BaselineHeapQueue q;
        Rng rng(11);
        runChurn(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurn_HeapBaseline)->Unit(benchmark::kMillisecond);

static void
BM_EventChurnCancel_Ladder(benchmark::State &state)
{
    for (auto _ : state) {
        LadderQueueDriver q;
        Rng rng(13);
        runChurnCancel(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurnCancel_Ladder)->Unit(benchmark::kMillisecond);

static void
BM_EventChurnCancel_HeapBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        BaselineHeapQueue q;
        Rng rng(13);
        runChurnCancel(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurnCancel_HeapBaseline)->Unit(benchmark::kMillisecond);

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        for (int i = 0; i < 1000; ++i)
            sim.schedule(static_cast<Tick>(i * 7 % 500), [] {});
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(1);
    double sink = 0.0;
    for (auto _ : state)
        sink += rng.exponential(100.0);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

static void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram h;
    Rng rng(2);
    for (auto _ : state)
        h.record(static_cast<std::uint64_t>(rng.exponential(1e6)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

static void
BM_HistogramPercentile(benchmark::State &state)
{
    Histogram h;
    Rng rng(3);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<std::uint64_t>(rng.exponential(1e6)));
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += h.p99();
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HistogramPercentile);

static void
BM_SocialNetworkRequest(benchmark::State &state)
{
    // Cost of one fully simulated end-to-end request through the
    // 36-service graph (events, RPC hops, tracing).
    apps::WorldConfig c;
    c.workerServers = 5;
    apps::World w(c);
    apps::buildSocialNetwork(w);
    workload::QueryMix mix = workload::QueryMix::fromApp(*w.app);
    workload::UserPopulation users = workload::UserPopulation::uniform(100);
    Rng rng(7);
    for (auto _ : state) {
        w.app->inject(mix.sample(rng), users.sample(rng));
        w.ctx.run();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["events/req"] = benchmark::Counter(
        static_cast<double>(w.ctx.eventsExecuted()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SocialNetworkRequest);
