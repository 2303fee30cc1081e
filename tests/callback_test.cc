#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/callback.hh"
#include "core/pool.hh"
#include "core/ring.hh"

using namespace uqsim;

namespace {

/** A capture that counts how often a live copy of it is destroyed. */
struct Counted
{
    int *destroyed;
    bool live = true;

    explicit Counted(int *d) : destroyed(d) {}
    Counted(Counted &&o) noexcept : destroyed(o.destroyed)
    {
        o.live = false;
    }
    Counted(const Counted &) = delete;
    ~Counted()
    {
        if (live)
            ++*destroyed;
    }
};

/** A capture too large for the inline buffer. */
struct Big
{
    Counted c;
    std::array<char, 2 * kCallbackInlineBytes> pad{};
};

} // namespace

static_assert(!std::is_copy_constructible_v<Callback<void()>>);
static_assert(!std::is_copy_assignable_v<Callback<void()>>);
static_assert(std::is_nothrow_move_constructible_v<Callback<void()>>);

TEST(CallbackTest, NotCopyConstructible)
{
    EXPECT_FALSE(std::is_copy_constructible_v<Callback<void(int)>>);
    EXPECT_TRUE(std::is_move_constructible_v<Callback<void(int)>>);
}

TEST(CallbackTest, InlineTargetDestroysCapturesOnce)
{
    int destroyed = 0;
    int calls = 0;
    {
        auto f = [c = Counted(&destroyed), &calls](int x) { calls += x; };
        static_assert(Callback<void(int)>::storesInline<decltype(f)>);
        Callback<void(int)> a(std::move(f));
        Callback<void(int)> b(std::move(a));
        Callback<void(int)> c;
        c = std::move(b);
        EXPECT_FALSE(a);
        EXPECT_FALSE(b);
        ASSERT_TRUE(c);
        c(2);
        c(3);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(destroyed, 1);
}

TEST(CallbackTest, HeapTargetDestroysCapturesOnce)
{
    int destroyed = 0;
    int calls = 0;
    {
        auto f = [big = Big{Counted(&destroyed)}, &calls]() { ++calls; };
        static_assert(!Callback<void()>::storesInline<decltype(f)>);
        Callback<void()> a(std::move(f));
        Callback<void()> b(std::move(a));
        Callback<void()> c;
        c = std::move(b);
        c();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 1);
}

TEST(CallbackTest, MoveAssignmentDestroysOverwrittenTarget)
{
    int first = 0;
    int second = 0;
    Callback<void()> a([c = Counted(&first)]() {});
    Callback<void()> b([c = Counted(&second)]() {});
    a = std::move(b);
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
    a = nullptr;
    EXPECT_EQ(second, 1);
    EXPECT_FALSE(a);

    // The heap fallback is overwritten the same way.
    int big = 0;
    Callback<void()> h([b = Big{Counted(&big)}]() {});
    h = Callback<void()>([]() {});
    EXPECT_EQ(big, 1);
}

TEST(CallbackTest, TargetMayDropLastHandleToItsOwnState)
{
    // The state owns the running Callback; the target releases the
    // last handle to it mid-call, destroying its own closure.
    struct State
    {
        Callback<void()> cb;
        Counted c;
        explicit State(int *d) : c(d) {}
    };
    int destroyed = 0;
    bool ran = false;
    {
        auto owner = std::make_shared<State>(&destroyed);
        std::shared_ptr<State> *slot = &owner;
        // Nothing of the closure may be touched after the reset.
        owner->cb = [slot, &ran]() {
            ran = true;
            slot->reset();
        };
        owner->cb();
        EXPECT_FALSE(owner);
    }
    EXPECT_TRUE(ran);
    EXPECT_EQ(destroyed, 1);

    // Same with a pooled handle and a heap-stored target.
    struct Pooled
    {
        Callback<void()> cb;
    };
    Pool<Pooled> pool;
    PoolRef<Pooled> handle = pool.make();
    int big = 0;
    handle->cb = [b = Big{Counted(&big)}, h = &handle]() { h->reset(); };
    handle->cb();
    EXPECT_FALSE(handle);
    EXPECT_EQ(big, 1);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(CallbackTest, EmptyTargetsStayEmpty)
{
    Callback<void()> none(std::function<void()>{});
    EXPECT_FALSE(none);
    EXPECT_THROW(none(), std::bad_function_call);
    void (*fp)() = nullptr;
    EXPECT_FALSE(Callback<void()>(fp));
    Callback<int(int)> twice([](int x) { return 2 * x; });
    EXPECT_EQ(twice(21), 42);
}

TEST(PoolTest, LastHandleRecyclesTheObject)
{
    Pool<int> pool;
    PoolRef<int> a = pool.make();
    *a = 7;
    PoolRef<int> b = a;
    EXPECT_EQ(pool.live(), 1u);
    a.reset();
    EXPECT_EQ(*b, 7);
    PoolRef<int> c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(pool.live(), 1u);
    int *slot = c.get();
    c.reset();
    EXPECT_EQ(pool.live(), 0u);
    // The freed node is the next one handed out, value-initialized.
    PoolRef<int> d = pool.make();
    EXPECT_EQ(d.get(), slot);
    EXPECT_EQ(*d, 0);
}

TEST(PoolTest, HandleOutlivesItsPool)
{
    int destroyed = 0;
    struct Holder
    {
        std::unique_ptr<Counted> c;
    };
    PoolRef<Holder> survivor;
    {
        Pool<Holder> pool;
        std::vector<PoolRef<Holder>> many;
        for (int i = 0; i < 100; ++i)
            many.push_back(pool.make()); // grows past one chunk
        many.clear();
        survivor = pool.make();
        survivor->c = std::make_unique<Counted>(&destroyed);
    }
    EXPECT_EQ(destroyed, 0);
    survivor.reset(); // frees the object, then the orphaned pool
    EXPECT_EQ(destroyed, 1);
}

TEST(RingTest, FifoAcrossGrowthAndErase)
{
    Ring<int> r;
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 13; ++i)
            r.push_back(next_in++);
        for (int i = 0; i < 7; ++i) {
            ASSERT_EQ(r.front(), next_out++);
            r.pop_front();
        }
    }
    EXPECT_EQ(r.size(), 30u);
    const int erased = r[3];
    r.erase(3);
    EXPECT_EQ(r.size(), 29u);
    for (std::size_t i = 0; i < r.size(); ++i) {
        const int expect = next_out + static_cast<int>(i) +
                           (static_cast<int>(i) >= 3 ? 1 : 0);
        EXPECT_EQ(r[i], expect);
        EXPECT_NE(r[i], erased);
    }
    r.clear();
    EXPECT_TRUE(r.empty());
}
