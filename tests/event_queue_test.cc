/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/event_queue.hh"

namespace uqsim {
namespace {

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.executedCount(), 0u);
}

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickFiresFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.popNext().second();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReturnsFiringTime)
{
    EventQueue q;
    q.schedule(123, [] {});
    EXPECT_EQ(q.nextTick(), 123u);
    auto [when, cb] = q.popNext();
    EXPECT_EQ(when, 123u);
    cb();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventHandle h = q.schedule(5, [&] { fired = true; });
    EXPECT_TRUE(h.valid());
    h.cancel();
    EXPECT_TRUE(h.isCancelled());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent)
{
    EventQueue q;
    EventHandle h = q.schedule(5, [] {});
    h.cancel();
    h.cancel();
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, CancelMiddleEventSkipsOnlyIt)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    EventHandle h = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    h.cancel();
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelAfterFireIsNoop)
{
    EventQueue q;
    EventHandle h = q.schedule(1, [] {});
    auto [when, cb] = q.popNext();
    cb();
    EXPECT_TRUE(h.hasFired());
    h.cancel(); // must not corrupt the live count
    EXPECT_TRUE(q.empty());
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, CancelledCallbackDiesOnceItsTickPasses)
{
    // A held handle keeps the node (for status queries) but must not
    // keep the cancelled closure and whatever it captured.
    EventQueue q;
    auto sentinel = std::make_shared<int>(0);
    EventHandle h = q.schedule(10, [sentinel] {});
    q.schedule(20, [] {});
    h.cancel();
    EXPECT_EQ(sentinel.use_count(), 2);
    q.popNext().second();
    EXPECT_TRUE(h.isCancelled());
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventQueueTest, DestructionFreesCallbacksOwningTheirHandle)
{
    // The closure owns the handle naming it: a cycle through the pool
    // that only the queue's destructor can break.
    auto sentinel = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = sentinel;
    {
        EventQueue q;
        auto owner = std::make_shared<EventHandle>();
        *owner = q.schedule(5, [owner, sentinel] {});
        sentinel.reset();
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, DefaultHandleIsInvalid)
{
    EventHandle h;
    EXPECT_FALSE(h.valid());
    h.cancel(); // safe no-op
}

TEST(EventQueueTest, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] { ++fired; });
    });
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.executedCount(), 2u);
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = 0;
    for (int i = 0; i < 10000; ++i)
        q.schedule(static_cast<Tick>((i * 7919) % 1000), [] {});
    while (!q.empty()) {
        auto [when, cb] = q.popNext();
        EXPECT_GE(when, last);
        last = when;
        cb();
    }
    EXPECT_EQ(q.executedCount(), 10000u);
}

} // namespace
} // namespace uqsim
