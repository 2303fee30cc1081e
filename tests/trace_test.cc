/**
 * @file
 * Tests for the distributed-tracing store, collector and analysis:
 * ring-buffer storage and eviction, service-name interning,
 * trace-coherent sampling and critical-path attribution.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/metrics.hh"
#include "trace/analysis.hh"
#include "trace/collector.hh"

namespace uqsim::trace {
namespace {

Span
makeSpan(TraceStore &store, TraceId trace, SpanId id, SpanId parent,
         const std::string &svc, Tick start, Tick end, Tick net = 0,
         Tick app = 0)
{
    Span s;
    s.traceId = trace;
    s.spanId = id;
    s.parentSpanId = parent;
    s.service = store.intern(svc);
    s.start = start;
    s.end = end;
    s.networkTime = net;
    s.appTime = app;
    return s;
}

TEST(TraceStoreTest, InsertAndIndex)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 10, kNoParent, "front", 0, 100));
    store.insert(makeSpan(store, 1, 11, 10, "back", 10, 60));
    store.insert(makeSpan(store, 2, 12, kNoParent, "front", 0, 50));
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.byTrace(1).size(), 2u);
    EXPECT_EQ(store.byTrace(2).size(), 1u);
    EXPECT_EQ(store.byService("front").size(), 2u);
    EXPECT_EQ(store.byService("missing").size(), 0u);
    EXPECT_EQ(store.services(), (std::vector<std::string>{"back", "front"}));
}

TEST(TraceStoreTest, InterningIsIdempotentAndStable)
{
    TraceStore store;
    const ServiceId a = store.intern("alpha");
    const ServiceId b = store.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(store.intern("alpha"), a);
    EXPECT_EQ(store.serviceId("alpha"), a);
    EXPECT_EQ(store.serviceId("unknown"), kNoService);
    EXPECT_EQ(store.serviceName(a), "alpha");
    EXPECT_EQ(store.serviceName(b), "beta");
}

TEST(TraceStoreTest, ClearEmptiesEverything)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 1, kNoParent, "svc", 0, 10));
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(store.byTrace(1).empty());
    EXPECT_EQ(store.evicted(), 0u);
    EXPECT_EQ(store.inserted(), 0u);
    // Interned names survive a clear; recording code caches the ids.
    EXPECT_EQ(store.serviceId("svc"), 0u);
}

TEST(TraceStoreTest, RingWrapKeepsNewestSpans)
{
    TraceStore store(4);
    for (SpanId id = 1; id <= 6; ++id)
        store.insert(makeSpan(store, id, id, kNoParent, "svc",
                              id * 100, id * 100 + 10));
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.capacity(), 4u);
    EXPECT_EQ(store.inserted(), 6u);
    EXPECT_EQ(store.evicted(), 2u);
    // Oldest-first order over the survivors: spans 3..6.
    for (std::size_t i = 0; i < store.size(); ++i)
        EXPECT_EQ(store.at(i).spanId, i + 3);
}

TEST(TraceStoreTest, IndicesConsistentAfterEviction)
{
    TraceStore store(4);
    for (SpanId id = 1; id <= 7; ++id)
        store.insert(makeSpan(store, /*trace=*/id % 2, id, kNoParent,
                              id % 2 ? "odd" : "even", 0, 10));
    // Survivors are spans 4..7: traces {0: 4,6} and {1: 5,7}.
    const auto even_trace = store.byTrace(0);
    ASSERT_EQ(even_trace.size(), 2u);
    EXPECT_EQ(even_trace[0].spanId, 4u);
    EXPECT_EQ(even_trace[1].spanId, 6u);
    EXPECT_EQ(store.byTrace(1).size(), 2u);
    EXPECT_EQ(store.byService("odd").size(), 2u);
    EXPECT_EQ(store.byService("even").size(), 2u);
    // Index positions must dereference to spans of the right service.
    for (std::size_t pos : store.byService("odd"))
        EXPECT_EQ(store.serviceName(store.at(pos).service), "odd");
}

TEST(TraceStoreTest, ShrinkKeepsNewestAndCountsEvicted)
{
    TraceStore store(8);
    for (SpanId id = 1; id <= 6; ++id)
        store.insert(makeSpan(store, 1, id, kNoParent, "svc", 0, 10));
    store.setCapacity(3);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.evicted(), 3u);
    EXPECT_EQ(store.at(0).spanId, 4u);
    EXPECT_EQ(store.at(2).spanId, 6u);

    // Growing after a wrap keeps order and makes room again.
    store.setCapacity(5);
    store.insert(makeSpan(store, 1, 7, kNoParent, "svc", 0, 10));
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.at(0).spanId, 4u);
    EXPECT_EQ(store.at(3).spanId, 7u);
}

TEST(CollectorTest, DisabledDropsSpans)
{
    TraceStore store;
    Collector c(store);
    c.setEnabled(false);
    c.collect(makeSpan(store, 1, 1, kNoParent, "svc", 0, 10));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(c.offered(), 1u);
    EXPECT_EQ(c.stored(), 0u);
}

TEST(CollectorTest, SamplingIsTraceCoherent)
{
    TraceStore store;
    Collector c(store);
    c.setSampleEvery(4);
    // Three spans per trace, many traces: every stored trace must be
    // complete — sampling drops whole traces, never individual spans.
    const int kTraces = 256, kSpansPerTrace = 3;
    SpanId next_span = 1;
    for (TraceId t = 1; t <= kTraces; ++t)
        for (int i = 0; i < kSpansPerTrace; ++i)
            c.collect(makeSpan(store, t, next_span++, kNoParent, "svc",
                               0, 10));

    std::set<TraceId> kept;
    for (const Span &s : store.spans()) {
        kept.insert(s.traceId);
        EXPECT_TRUE(c.sampled(s.traceId));
    }
    for (TraceId t : kept)
        EXPECT_EQ(store.byTrace(t).size(),
                  static_cast<std::size_t>(kSpansPerTrace));
    // The hash keeps roughly 1-in-4 traces; exact count is
    // deterministic, so pin a sane band rather than an exact value.
    EXPECT_GT(kept.size(), kTraces / 8u);
    EXPECT_LT(kept.size(), kTraces / 2u);
    EXPECT_EQ(c.offered(), kTraces * kSpansPerTrace);
    EXPECT_EQ(c.stored(), kept.size() * kSpansPerTrace);
    EXPECT_EQ(c.sampledOut(), c.offered() - c.stored());
}

TEST(CollectorTest, SampleEveryOneKeepsEverything)
{
    TraceStore store;
    Collector c(store);
    c.setSampleEvery(1);
    for (TraceId t = 1; t <= 50; ++t)
        c.collect(makeSpan(store, t, t, kNoParent, "svc", 0, 10));
    EXPECT_EQ(store.size(), 50u);
    EXPECT_EQ(c.sampledOut(), 0u);
}

TEST(CollectorTest, BindMetricsCarriesValuesOver)
{
    TraceStore store;
    Collector c(store);
    c.collect(makeSpan(store, 1, 1, kNoParent, "svc", 0, 10));

    MetricsRegistry metrics;
    c.bindMetrics(metrics);
    EXPECT_EQ(metrics.counter("trace.spans_offered").value(), 1u);
    c.collect(makeSpan(store, 2, 2, kNoParent, "svc", 0, 10));
    EXPECT_EQ(metrics.counter("trace.spans_offered").value(), 2u);
    EXPECT_EQ(c.offered(), 2u);
    EXPECT_EQ(metrics.counter("trace.spans_stored").value(), c.stored());
}

TEST(TraceAnalysisTest, PerServiceSummary)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 1, kNoParent, "a", 0, 100, 25, 50));
    store.insert(makeSpan(store, 2, 2, kNoParent, "a", 0, 200, 50, 100));
    TraceAnalysis ta(store);
    const auto s = ta.forService("a");
    EXPECT_EQ(s.spanCount, 2u);
    EXPECT_NEAR(s.networkShare, 0.25, 1e-9);
    EXPECT_NEAR(s.appShare, 0.5, 1e-9);
    EXPECT_NEAR(s.meanLatencyUs, 0.15, 1e-6); // (100+200)/2 ns
}

TEST(TraceAnalysisTest, EndToEndNetworkShare)
{
    TraceStore store;
    // Root of trace 1: 1000ns long; total network across spans 300ns.
    store.insert(makeSpan(store, 1, 1, kNoParent, "client", 0, 1000, 100, 0));
    store.insert(makeSpan(store, 1, 2, 1, "svc", 100, 800, 200, 400));
    TraceAnalysis ta(store);
    EXPECT_NEAR(ta.endToEndNetworkShare(), 0.3, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathExclusiveTimes)
{
    TraceStore store;
    // parent [0,1000], child [200,700]: parent exclusive 500, child 500.
    store.insert(makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000));
    store.insert(makeSpan(store, 1, 2, 1, "child", 200, 700));
    TraceAnalysis ta(store);
    const auto cp = ta.criticalPath();
    EXPECT_NEAR(cp.at("parent"), 500.0, 1e-9);
    EXPECT_NEAR(cp.at("child"), 500.0, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathSequentialChildren)
{
    TraceStore store;
    // parent [0,1000] with back-to-back children [100,400] and
    // [500,900]: parent keeps only the gaps (100+100+100).
    store.insert(makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000));
    store.insert(makeSpan(store, 1, 2, 1, "child", 100, 400));
    store.insert(makeSpan(store, 1, 3, 1, "child", 500, 900));
    TraceAnalysis ta(store);
    const auto cp = ta.criticalPath();
    EXPECT_NEAR(cp.at("parent"), 300.0, 1e-9);
    EXPECT_NEAR(cp.at("child"), 700.0, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathClampsOverlappingChildren)
{
    TraceStore store;
    // Parallel children whose summed duration exceeds the parent.
    store.insert(makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000));
    store.insert(makeSpan(store, 1, 2, 1, "child", 0, 900));
    store.insert(makeSpan(store, 1, 3, 1, "child", 0, 900));
    TraceAnalysis ta(store);
    const auto cp = ta.criticalPath();
    EXPECT_NEAR(cp.at("parent"), 0.0, 1e-9); // fully covered
    EXPECT_NEAR(cp.at("child"), 1800.0, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathBreakdownComponents)
{
    TraceStore store;
    Span parent =
        makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000, 100, 200);
    parent.queueTime = 50;
    parent.downstreamWait = 500;
    store.insert(parent);
    store.insert(makeSpan(store, 1, 2, 1, "child", 200, 700, 30, 400));

    TraceAnalysis ta(store);
    const auto bd = ta.criticalPathBreakdown();
    ASSERT_EQ(bd.size(), 2u);
    // Ordered by exclusive time descending: both are 500 here, so the
    // tie breaks by name.
    EXPECT_EQ(bd[0].service, "child");
    EXPECT_NEAR(bd[0].exclusiveNs, 500.0, 1e-9);
    EXPECT_NEAR(bd[0].appNs, 400.0, 1e-9);
    EXPECT_NEAR(bd[0].networkNs, 30.0, 1e-9);
    EXPECT_EQ(bd[1].service, "parent");
    EXPECT_NEAR(bd[1].exclusiveNs, 500.0, 1e-9);
    EXPECT_NEAR(bd[1].queueNs, 50.0, 1e-9);
    EXPECT_NEAR(bd[1].appNs, 200.0, 1e-9);
    EXPECT_NEAR(bd[1].networkNs, 100.0, 1e-9);
    EXPECT_NEAR(bd[1].downstreamNs, 500.0, 1e-9);
}

TEST(TraceAnalysisTest, TraceBreakdownDepthsAndOrder)
{
    TraceStore store;
    store.insert(makeSpan(store, 7, 1, kNoParent, "root", 0, 1000));
    store.insert(makeSpan(store, 7, 2, 1, "mid", 100, 900));
    store.insert(makeSpan(store, 7, 3, 2, "leaf", 200, 600));
    // A different trace must not leak into the breakdown.
    store.insert(makeSpan(store, 8, 4, kNoParent, "root", 0, 500));

    TraceAnalysis ta(store);
    const auto hops = ta.traceBreakdown(7);
    ASSERT_EQ(hops.size(), 3u);
    EXPECT_EQ(hops[0].span.spanId, 1u);
    EXPECT_EQ(hops[0].depth, 0u);
    EXPECT_EQ(hops[0].exclusiveNs, 200u); // 1000 - mid's 800
    EXPECT_EQ(hops[1].span.spanId, 2u);
    EXPECT_EQ(hops[1].depth, 1u);
    EXPECT_EQ(hops[1].exclusiveNs, 400u); // 800 - leaf's 400
    EXPECT_EQ(hops[2].depth, 2u);
    EXPECT_EQ(hops[2].exclusiveNs, 400u);
    EXPECT_TRUE(ta.traceBreakdown(99).empty());
}

TEST(IdAllocatorTest, MonotonicIds)
{
    IdAllocator ids;
    const TraceId t1 = ids.nextTrace();
    const TraceId t2 = ids.nextTrace();
    EXPECT_LT(t1, t2);
    const SpanId s1 = ids.nextSpan();
    const SpanId s2 = ids.nextSpan();
    EXPECT_LT(s1, s2);
}

} // namespace
} // namespace uqsim::trace
