/**
 * @file
 * Unit tests for the simulation driver, including the regression test
 * for clock visibility inside callbacks and the engine's behaviour at
 * the kMaxTick edge of simulated time.
 */

#include <gtest/gtest.h>

#include "core/sim_context.hh"
#include "core/simulator.hh"
#include "core/types.hh"

namespace uqsim {
namespace {

TEST(SimulatorTest, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulatorTest, CallbackSeesItsFiringTime)
{
    // Regression: callbacks must observe now() == their firing time,
    // not the previous event's time.
    Simulator sim;
    Tick seen = 0;
    sim.schedule(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, NestedSchedulingIsRelativeToFiringTime)
{
    Simulator sim;
    Tick inner = 0;
    sim.schedule(100, [&] {
        sim.schedule(50, [&] { inner = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(inner, 150u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline)
{
    Simulator sim;
    sim.schedule(10, [] {});
    sim.runUntil(500);
    EXPECT_EQ(sim.now(), 500u);
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsQueued)
{
    Simulator sim;
    bool early = false, late = false;
    sim.schedule(10, [&] { early = true; });
    sim.schedule(1000, [&] { late = true; });
    sim.runUntil(100);
    EXPECT_TRUE(early);
    EXPECT_FALSE(late);
    EXPECT_EQ(sim.queue().size(), 1u);
    sim.run();
    EXPECT_TRUE(late);
}

TEST(SimulatorTest, RunForIsRelative)
{
    Simulator sim;
    sim.runFor(100);
    sim.runFor(100);
    EXPECT_EQ(sim.now(), 200u);
}

TEST(SimulatorTest, EventAtDeadlineRuns)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(100, [&] { fired = true; });
    sim.runUntil(100);
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime)
{
    Simulator sim;
    Tick seen = 0;
    sim.scheduleAt(77, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 77u);
}

TEST(SimulatorTest, EventsExecutedCounts)
{
    Simulator sim;
    for (int i = 0; i < 5; ++i)
        sim.schedule(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 5u);
}

// -- The kMaxTick edge ---------------------------------------------------

TEST(SimulatorEdgeTest, RunUntilEndOfTimeReturnsOnAnEmptyEngine)
{
    // The dispatch loop must stop on queue emptiness: an empty engine
    // has no next event, not a next event at kMaxTick.
    ParallelSimulator until({1, kMaxTick, 1});
    until.runUntil(kMaxTick);
    EXPECT_EQ(until.now(0), kMaxTick);

    ParallelSimulator for_({1, kMaxTick, 1});
    for_.runFor(kMaxTick);
    EXPECT_EQ(for_.now(0), kMaxTick);
    EXPECT_EQ(for_.eventsExecuted(), 0u);
}

TEST(SimulatorEdgeTest, RunExecutesAnEventAtEndOfTime)
{
    // run() drains every queue, including an event at kMaxTick, on
    // one shard and on several.
    for (unsigned shards : {1u, 3u}) {
        ParallelSimulator sim({shards, kMaxTick, 1});
        SimContext first = sim.context(0), last = sim.context(shards - 1);
        int fired = 0;
        first.scheduleAt(kMaxTick, [&fired] { ++fired; });
        last.scheduleAt(kMaxTick, [&fired] { ++fired; });
        sim.run();
        EXPECT_EQ(fired, 2) << "shards=" << shards;
        EXPECT_EQ(sim.eventsExecuted(), 2u) << "shards=" << shards;
        EXPECT_TRUE(first.queue().empty()) << "shards=" << shards;
        EXPECT_TRUE(last.queue().empty()) << "shards=" << shards;
    }
}

TEST(SimulatorEdgeTest, RunForSaturatesAtEndOfTime)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(50, [&fired] { ++fired; });
    sim.runFor(10);
    sim.runFor(kMaxTick); // 10 + kMaxTick must not wrap into the past
    EXPECT_EQ(sim.now(), kMaxTick);
    EXPECT_EQ(fired, 1);

    // The same through a component's context.
    Simulator other;
    SimContext ctx(other);
    ctx.runFor(10);
    ctx.runFor(kMaxTick);
    EXPECT_EQ(ctx.now(), kMaxTick);
}

TEST(SimulatorDeathTest, ScheduleAtPastPanics)
{
    Simulator sim;
    sim.schedule(10, [] {});
    sim.runUntil(100);
    EXPECT_DEATH(sim.scheduleAt(50, [] {}), "in the past");
}

TEST(SimulatorDeathTest, RunUntilPastPanics)
{
    Simulator sim;
    sim.runUntil(100);
    EXPECT_DEATH(sim.runUntil(50), "in the past");
}

} // namespace
} // namespace uqsim
