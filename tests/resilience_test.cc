/**
 * @file
 * Unit tests of the client-side resilience primitives (circuit
 * breaker, retry budget, policy activation) and of the declarative
 * fault-schedule parsers (flag syntax, durations, JSON files).
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "rpc/resilience.hh"

namespace uqsim {
namespace {

using rpc::BreakerPolicy;
using rpc::CircuitBreaker;
using rpc::ResiliencePolicy;
using rpc::RetryBudget;
using rpc::RetryPolicy;

BreakerPolicy
smallBreaker()
{
    BreakerPolicy p;
    p.enabled = true;
    p.window = 1000;
    p.buckets = 10;
    p.failureThreshold = 0.5;
    p.minVolume = 4;
    p.cooldown = 500;
    p.halfOpenProbes = 1;
    return p;
}

TEST(ResiliencePolicyTest, InactiveByDefault)
{
    ResiliencePolicy pol;
    EXPECT_FALSE(pol.active());
    EXPECT_FALSE(pol.retry.enabled());
    EXPECT_FALSE(pol.breaker.enabled);
}

TEST(ResiliencePolicyTest, AnyKnobActivates)
{
    ResiliencePolicy pol;
    pol.timeout = 1;
    EXPECT_TRUE(pol.active());

    ResiliencePolicy retry;
    retry.retry.maxAttempts = 2;
    EXPECT_TRUE(retry.active());

    ResiliencePolicy shed;
    shed.shedQueueLength = 10;
    EXPECT_TRUE(shed.active());
}

TEST(CircuitBreakerTest, StaysClosedBelowMinVolume)
{
    CircuitBreaker br(smallBreaker());
    // 3 failures < minVolume 4: not enough evidence to trip.
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(br.allow(100));
        br.record(100, false);
    }
    EXPECT_TRUE(br.allow(100));
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreakerTest, TripsOnFailureRate)
{
    CircuitBreaker br(smallBreaker());
    for (int i = 0; i < 4; ++i)
        br.record(100, false);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(br.allow(101));
    EXPECT_EQ(br.timesOpened(), 1u);
}

TEST(CircuitBreakerTest, MixedOutcomesRespectThreshold)
{
    CircuitBreaker br(smallBreaker());
    // 3 failures / 8 total = 37.5% < 50%: stays closed.
    for (int i = 0; i < 5; ++i)
        br.record(100, true);
    for (int i = 0; i < 3; ++i)
        br.record(100, false);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    // Two more failures push it to 50%.
    br.record(100, false);
    br.record(100, false);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
}

TEST(CircuitBreakerTest, HalfOpenProbeSuccessCloses)
{
    CircuitBreaker br(smallBreaker());
    for (int i = 0; i < 4; ++i)
        br.record(100, false);
    ASSERT_EQ(br.state(), CircuitBreaker::State::Open);

    // Still open before the cooldown expires.
    EXPECT_FALSE(br.allow(300));
    // After the cooldown one probe goes through...
    EXPECT_TRUE(br.allow(700));
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    // ...but only one (halfOpenProbes = 1).
    EXPECT_FALSE(br.allow(700));
    br.record(700, true);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(br.allow(701));
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens)
{
    CircuitBreaker br(smallBreaker());
    for (int i = 0; i < 4; ++i)
        br.record(100, false);
    ASSERT_TRUE(br.allow(700));
    br.record(700, false);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(br.timesOpened(), 2u);
    // The cooldown restarts from the reopen.
    EXPECT_FALSE(br.allow(1100));
    EXPECT_TRUE(br.allow(1300));
}

TEST(CircuitBreakerTest, WindowForgetsOldFailures)
{
    CircuitBreaker br(smallBreaker());
    for (int i = 0; i < 3; ++i)
        br.record(100, false);
    // More than a full window later the old failures rotated out; the
    // one new failure is below minVolume.
    br.record(2500, false);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_LT(br.failureRate(2500), 1.1);
}

TEST(RetryBudgetTest, StartsAtCapAndStopsEarningAtRatioZero)
{
    // The bucket starts full (burst allowance) but a zero earn rate
    // never refills it. (The RPC layer skips the budget entirely when
    // budgetRatio is 0 — this covers the primitive's own contract.)
    RetryBudget budget(0.0, 2.0);
    EXPECT_TRUE(budget.tryWithdraw());
    EXPECT_TRUE(budget.tryWithdraw());
    budget.onAttempt();
    EXPECT_FALSE(budget.tryWithdraw());
}

TEST(RetryBudgetTest, EarnsPerAttemptAndSpends)
{
    // 0.25 is exact in binary, so four deposits make exactly one token.
    RetryBudget budget(0.25, 3.0);
    // Starts at cap: 3 retries available...
    EXPECT_TRUE(budget.tryWithdraw());
    EXPECT_TRUE(budget.tryWithdraw());
    EXPECT_TRUE(budget.tryWithdraw());
    // ...then dry.
    EXPECT_FALSE(budget.tryWithdraw());
    // Four first attempts earn one more retry at ratio 0.25.
    for (int i = 0; i < 4; ++i)
        budget.onAttempt();
    EXPECT_TRUE(budget.tryWithdraw());
    EXPECT_FALSE(budget.tryWithdraw());
}

TEST(RetryBudgetTest, CapBoundsSavings)
{
    RetryBudget budget(1.0, 2.0);
    for (int i = 0; i < 100; ++i)
        budget.onAttempt();
    EXPECT_TRUE(budget.tryWithdraw());
    EXPECT_TRUE(budget.tryWithdraw());
    EXPECT_FALSE(budget.tryWithdraw());
}

// ---- Fault-schedule parsing -------------------------------------------

TEST(FaultParseTest, Durations)
{
    Tick t = 0;
    EXPECT_TRUE(fault::parseDuration("250ms", t));
    EXPECT_EQ(t, 250 * kTicksPerMs);
    EXPECT_TRUE(fault::parseDuration("2s", t));
    EXPECT_EQ(t, 2 * kTicksPerSec);
    EXPECT_TRUE(fault::parseDuration("1500us", t));
    EXPECT_EQ(t, 1500 * kTicksPerUs);
    EXPECT_TRUE(fault::parseDuration("800ns", t));
    EXPECT_EQ(t, 800u);
    EXPECT_TRUE(fault::parseDuration("42", t)); // bare = ms
    EXPECT_EQ(t, 42 * kTicksPerMs);
    EXPECT_TRUE(fault::parseDuration("1.5s", t));
    EXPECT_EQ(t, kTicksPerSec + kTicksPerSec / 2);

    EXPECT_FALSE(fault::parseDuration("", t));
    EXPECT_FALSE(fault::parseDuration("abc", t));
    EXPECT_FALSE(fault::parseDuration("10parsecs", t));
    EXPECT_FALSE(fault::parseDuration("ms", t));

    // A tick count of 2^64 or more is rejected, not wrapped (to 0 here,
    // which would turn a timeout off), and leaves the output untouched.
    EXPECT_TRUE(fault::parseDuration("10000000000s", t));
    EXPECT_EQ(t, 10000000000 * kTicksPerSec);
    EXPECT_FALSE(fault::parseDuration("99999999999s", t));
    EXPECT_FALSE(fault::parseDuration("18446744074s", t));
    EXPECT_EQ(t, 10000000000 * kTicksPerSec);
}

TEST(FaultParseTest, CrashFlag)
{
    fault::FaultSpec spec;
    std::string error;
    ASSERT_TRUE(fault::parseFaultFlag(
        "crash@t=2s,dur=1s,service=backend,instance=3", spec, error))
        << error;
    EXPECT_EQ(spec.kind, fault::FaultKind::Crash);
    EXPECT_EQ(spec.start, 2 * kTicksPerSec);
    EXPECT_EQ(spec.duration, kTicksPerSec);
    EXPECT_EQ(spec.service, "backend");
    EXPECT_EQ(spec.instance, 3u);
    EXPECT_EQ(spec.end(), 3 * kTicksPerSec);
}

TEST(FaultParseTest, ErrorRateAndSlowAndPartitionFlags)
{
    fault::FaultSpec spec;
    std::string error;
    ASSERT_TRUE(fault::parseFaultFlag(
        "errors@t=1s,dur=2s,service=db,rate=0.8", spec, error));
    EXPECT_EQ(spec.kind, fault::FaultKind::ErrorRate);
    EXPECT_DOUBLE_EQ(spec.rate, 0.8);

    ASSERT_TRUE(fault::parseFaultFlag(
        "slow@t=500ms,dur=2s,server=4,factor=12.5", spec, error));
    EXPECT_EQ(spec.kind, fault::FaultKind::Slowdown);
    EXPECT_EQ(spec.server, 4u);
    EXPECT_DOUBLE_EQ(spec.factor, 12.5);

    ASSERT_TRUE(fault::parseFaultFlag(
        "partition@t=3s,dur=1s,a=0-1,b=2-4,loss=0.9", spec, error));
    EXPECT_EQ(spec.kind, fault::FaultKind::Partition);
    EXPECT_EQ(spec.groupA.first, 0u);
    EXPECT_EQ(spec.groupA.last, 1u);
    EXPECT_EQ(spec.groupB.first, 2u);
    EXPECT_EQ(spec.groupB.last, 4u);
    EXPECT_DOUBLE_EQ(spec.loss, 0.9);
    EXPECT_TRUE(spec.groupA.contains(1));
    EXPECT_FALSE(spec.groupA.contains(2));
}

TEST(FaultParseTest, RejectsMalformedFlags)
{
    fault::FaultSpec spec;
    std::string error;
    EXPECT_FALSE(fault::parseFaultFlag("nonsense", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag("meteor@t=1s", spec, error));
    EXPECT_NE(error.find("unknown fault kind"), std::string::npos);
    EXPECT_FALSE(fault::parseFaultFlag("crash@t=1s", spec, error));
    EXPECT_NE(error.find("service"), std::string::npos);
    EXPECT_FALSE(
        fault::parseFaultFlag("crash@t=1s,service=x,bogus=1", spec, error));
    EXPECT_NE(error.find("unknown fault key"), std::string::npos);
    EXPECT_FALSE(fault::parseFaultFlag(
        "errors@t=1s,dur=1s,service=x,rate=1.5", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "errors@t=1s,service=x,rate=0.5", spec, error)); // missing dur
    EXPECT_FALSE(fault::parseFaultFlag(
        "slow@t=1s,dur=1s,server=0,factor=0.5", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag("crash@t=oops,service=x", spec,
                                       error));

    // Integers that do not fit an unsigned, signed values and non-finite
    // numbers are rejected instead of wrapping or slipping past a range.
    EXPECT_FALSE(fault::parseFaultFlag(
        "crash@t=1s,dur=0.5s,service=x,instance=4294967296", spec, error));
    EXPECT_NE(error.find("bad instance"), std::string::npos) << error;
    EXPECT_FALSE(fault::parseFaultFlag(
        "crash@t=1s,service=x,instance=-1", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "slow@t=1s,dur=1s,server=-1,factor=2", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "partition@t=1s,dur=1s,a=0-4294967296,b=2-3", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "errors@t=1s,dur=1s,service=x,rate=nan", spec, error));
    EXPECT_NE(error.find("bad rate"), std::string::npos) << error;
    EXPECT_FALSE(fault::parseFaultFlag(
        "slow@t=1s,dur=1s,server=0,factor=nan", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "slow@t=1s,dur=1s,server=0,factor=inf", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "partition@t=1s,dur=1s,a=0-1,b=2-3,loss=nan", spec, error));
    EXPECT_FALSE(fault::parseFaultFlag(
        "crash@t=99999999999s,service=x", spec, error));
}

TEST(FaultParseTest, JsonSchedule)
{
    const std::string json = R"({
      "faults": [
        {"kind": "crash", "t": "2s", "dur": "1s",
         "service": "backend", "instance": 1},
        {"kind": "errors", "t": 1000, "dur": "2s",
         "service": "db", "rate": 0.5},
        {"kind": "partition", "t": "3s", "dur": "1s",
         "a": "0-1", "b": "2-4", "loss": 1}
      ]
    })";
    std::vector<fault::FaultSpec> specs;
    std::string error;
    ASSERT_TRUE(fault::parseFaultFile(json, specs, error)) << error;
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].kind, fault::FaultKind::Crash);
    EXPECT_EQ(specs[0].instance, 1u);
    EXPECT_EQ(specs[1].start, kTicksPerSec); // bare number = ms
    EXPECT_DOUBLE_EQ(specs[1].rate, 0.5);
    EXPECT_EQ(specs[2].groupB.last, 4u);
}

TEST(FaultParseTest, JsonTopLevelArrayAlsoAccepted)
{
    std::vector<fault::FaultSpec> specs;
    std::string error;
    ASSERT_TRUE(fault::parseFaultFile(
        R"([{"kind": "slow", "t": "1s", "dur": "1s", "server": 2}])",
        specs, error))
        << error;
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].server, 2u);
}

TEST(FaultParseTest, JsonErrorsAreNamed)
{
    std::vector<fault::FaultSpec> specs;
    std::string error;
    EXPECT_FALSE(fault::parseFaultFile("{", specs, error));
    EXPECT_FALSE(fault::parseFaultFile("{\"x\": 1}", specs, error));
    EXPECT_NE(error.find("faults"), std::string::npos);
    EXPECT_FALSE(fault::parseFaultFile(
        R"([{"kind": "crash", "t": "1s"}])", specs, error));
    EXPECT_NE(error.find("fault #0"), std::string::npos);
    EXPECT_FALSE(fault::parseFaultFile(
        R"([{"kind": "crash", "t": "1s", "service": "x",)"
        R"( "instance": [1]}])",
        specs, error));
}

} // namespace
} // namespace uqsim
