/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are closures scheduled at absolute ticks. Two events scheduled
 * for the same tick fire in scheduling order (FIFO), which keeps runs
 * deterministic. Events can be cancelled through the handle returned at
 * scheduling time; cancellation is O(1) and the entry is discarded
 * lazily when the queue next encounters it.
 *
 * Internally this is a ladder/calendar queue rather than a binary heap:
 * a ring of per-tick FIFO buckets covers the near future (O(1) schedule
 * and pop for the common short-delay case), and an overflow min-heap
 * holds events scheduled beyond the bucket window. Event nodes are
 * pooled through an intrusive free list and each holds its callback
 * inline (core/callback.hh), so steady-state scheduling performs no
 * allocation. The execution order is exactly the global
 * (tick, sequence-number) order the old heap implementation produced,
 * and a running FNV-1a digest over every executed (tick, seq) pair lets
 * two runs be proven identical (see executionDigest()).
 */

#ifndef UQSIM_CORE_EVENT_QUEUE_HH
#define UQSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "core/callback.hh"
#include "core/types.hh"

namespace uqsim {

/** Callback type invoked when an event fires. */
using EventCallback = Callback<void()>;

namespace detail {

/** Lifecycle of a pooled event node. */
enum class EventStatus : std::uint8_t
{
    Scheduled,  ///< linked in a bucket or the overflow heap
    Fired,      ///< popped and executed (or being executed)
    Cancelled,  ///< cancelled before firing; unlinked lazily
};

/**
 * One scheduled event. Nodes are pooled and linked intrusively: the
 * same `next` pointer threads a node through its tick bucket's FIFO
 * chain and, once retired, through the pool free list.
 */
struct EventNode
{
    Tick when = 0;
    std::uint64_t seq = 0;
    EventCallback cb;
    EventNode *next = nullptr;
    /** Number of live EventHandle copies referring to this node. */
    std::uint32_t handleRefs = 0;
    EventStatus status = EventStatus::Fired;
    /** Still linked in a bucket chain or the overflow heap. */
    bool inQueue = false;
};

/**
 * Chunked node pool shared between the queue and any outstanding
 * handles, so a handle may safely outlive its queue (mirroring the old
 * shared-state semantics) without a per-event heap allocation. The
 * queue and every handle each hold one count in `refs` (plain, not
 * atomic: a shard's queue and handles live on its thread); the last
 * one frees the pool. Chunks come from plain operator new and are
 * carved node by node, so the pool touches memory only as the queue's
 * depth grows.
 */
struct EventPool
{
    static constexpr std::size_t kChunkNodes = 4096;

    EventPool() = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;
    ~EventPool();

    std::vector<EventNode *> chunks;
    /** Nodes constructed so far in the newest chunk. */
    std::size_t carved = kChunkNodes;
    EventNode *freeList = nullptr;
    /** Scheduled-and-not-cancelled events (shared so handles can
     *  decrement it on cancellation). */
    std::uint64_t liveCount = 0;
    /** The queue plus every EventHandle into this pool. */
    std::uint64_t refs = 1;

    /** Drop one count; the last one frees the pool. */
    void
    unref()
    {
        if (--refs == 0)
            delete this;
    }

    /** Pop a node off the free list, growing the pool if needed. */
    EventNode *allocate();

    /** Return a retired, unreferenced (and callback-free) node to the
     *  free list. */
    void release(EventNode *node);

    /** Call @p fn on every node constructed so far. */
    template <typename Fn>
    void
    forEachNode(Fn fn)
    {
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const std::size_t n =
                c + 1 == chunks.size() ? carved : kChunkNodes;
            for (std::size_t i = 0; i < n; ++i)
                fn(chunks[c][i]);
        }
    }
};

} // namespace detail

/**
 * Handle to a scheduled event, allowing cancellation.
 *
 * Handles are cheap to copy; all copies refer to the same scheduled
 * event. A default-constructed handle refers to nothing. A node is
 * never recycled while a handle still refers to it, so status queries
 * stay accurate for as long as the handle is held.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    EventHandle(const EventHandle &other)
        : pool_(other.pool_), node_(other.node_)
    {
        if (node_) {
            ++node_->handleRefs;
            ++pool_->refs;
        }
    }

    EventHandle(EventHandle &&other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          node_(std::exchange(other.node_, nullptr))
    {}

    /** Unified copy/move assignment (copy-and-swap). */
    EventHandle &
    operator=(EventHandle other) noexcept
    {
        std::swap(pool_, other.pool_);
        std::swap(node_, other.node_);
        return *this;
    }

    ~EventHandle() { reset(); }

    /** Cancel the event if it has not fired yet. Idempotent. */
    void
    cancel()
    {
        if (node_ && node_->status == detail::EventStatus::Scheduled) {
            node_->status = detail::EventStatus::Cancelled;
            --pool_->liveCount;
        }
    }

    /** @return true if this handle refers to a scheduled event. */
    bool valid() const { return node_ != nullptr; }

    /** @return true if the event was cancelled before firing. */
    bool
    isCancelled() const
    {
        return node_ && node_->status == detail::EventStatus::Cancelled;
    }

    /** @return true if the event already fired. */
    bool
    hasFired() const
    {
        return node_ && node_->status == detail::EventStatus::Fired;
    }

  private:
    friend class EventQueue;

    /** Adopts one reference already counted in node->handleRefs. */
    EventHandle(detail::EventPool *pool, detail::EventNode *node)
        : pool_(pool), node_(node)
    {
        ++pool_->refs;
    }

    void
    reset()
    {
        if (!node_)
            return;
        if (--node_->handleRefs == 0 && !node_->inQueue &&
            node_->status != detail::EventStatus::Scheduled) {
            pool_->release(node_);
        }
        node_ = nullptr;
        std::exchange(pool_, nullptr)->unref();
    }

    detail::EventPool *pool_ = nullptr;
    detail::EventNode *node_ = nullptr;
};

/**
 * Ladder/calendar queue of timed events with deterministic same-tick
 * FIFO ordering (globally: ascending (tick, sequence) order).
 */
class EventQueue
{
  public:
    EventQueue();

    /**
     * Drops every pending callback first: one may own a handle into
     * this queue's pool (an RPC attempt owns its timeout), which would
     * otherwise keep the pool, and everything it holds, alive forever.
     */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to fire at absolute time @p when. The callback
     * is built in place in the event's pooled node.
     * @return a handle that may be used to cancel the event.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&cb)
    {
        detail::EventNode *node = enqueue(when);
        node->cb = std::forward<F>(cb);
        return EventHandle(pool_, node);
    }

    /** @return true if no live (uncancelled) events remain. */
    bool empty() const { return pool_->liveCount == 0; }

    /** @return number of live events currently queued. */
    std::size_t size() const { return pool_->liveCount; }

    /**
     * @return the firing time of the earliest live event.
     * @pre !empty()
     */
    Tick nextTick() const;

    /**
     * Pop the earliest live event *without* running it. A caller
     * driving its own clock advances it to the returned tick first and
     * then invokes the callback, so event handlers always observe the
     * correct current time (the engine itself uses runNext()).
     * @pre !empty()
     */
    std::pair<Tick, EventCallback> popNext();

    /**
     * Pop the earliest live event if it fires at or before
     * @p horizon, set @p clock to its tick and run its callback in
     * place: one queue scan where nextTick() then popNext() take two,
     * and no move of the callback. This is the engine's dispatch step.
     * @return false (and leaves @p clock alone) if the queue holds no
     * live event at or before @p horizon.
     */
    bool runNext(Tick horizon, Tick &clock);

    /** Total number of events ever executed (for stats/benchmarks). */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Running FNV-1a hash over the (tick, sequence) of every executed
     * event. Two runs with identical scheduling decisions — i.e. the
     * same seed — produce identical digests, so this is a cheap,
     * order-sensitive proof of determinism.
     */
    std::uint64_t executionDigest() const { return digest_; }

  private:
    /** Near-future window: 2^14 one-tick buckets (~16us of sim time). */
    static constexpr unsigned kBucketBits = 14;
    static constexpr std::size_t kBuckets = std::size_t(1) << kBucketBits;
    static constexpr std::size_t kBucketMask = kBuckets - 1;
    static constexpr std::size_t kWords = kBuckets / 64;
    static constexpr std::size_t kInvalidBucket = ~std::size_t(0);

    /** FIFO chain of events sharing one firing tick. */
    struct Bucket
    {
        detail::EventNode *head = nullptr;
        detail::EventNode *tail = nullptr;
    };

    /**
     * Overflow-heap entry with the ordering key inline, so sift
     * compares never dereference cold pool nodes.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        detail::EventNode *node;
    };

    /** Heap order: earliest (tick, seq) at the top. */
    struct HeapLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void markOccupied(std::size_t bucket) const;
    void clearOccupied(std::size_t bucket) const;

    /**
     * Ring-forward scan for the next non-empty occupancy word after
     * @p word (possibly @p word itself again after a full wrap).
     * @return word index, or kInvalidBucket if none.
     */
    std::size_t nextOccupiedWord(std::size_t word) const;

    /**
     * Find the bucket holding the earliest live bucketed event,
     * purging cancelled nodes encountered on the way.
     * @return bucket index, or kInvalidBucket if no live bucketed event.
     */
    std::size_t firstLiveBucket() const;

    /** Drop cancelled entries from the top of the overflow heap. */
    void purgeHeapTop() const;

    /**
     * Unlink a retired node and drop its callback; recycle the node if
     * no handles remain.
     */
    void retire(detail::EventNode *node) const;

    /**
     * Select the earliest live event across buckets and heap.
     * @return the node, or nullptr if none; *fromBucket tells where.
     */
    detail::EventNode *peekNext(std::size_t *bucketIndex) const;

    /**
     * Take a fresh node for time @p when, link it into its bucket or
     * the overflow heap and count it live; the caller sets its
     * callback.
     */
    detail::EventNode *enqueue(Tick when);

    /**
     * Unlink @p node, the peekNext() result from @p bucket, and
     * account it as executed. The node stays marked in-queue, so no
     * handle release can recycle it, until retire().
     */
    void pop(detail::EventNode *node, std::size_t bucket);

    /** Owned through one of the pool's counts. */
    detail::EventPool *pool_;

    /** Ring of per-tick buckets covering [cursor_, cursor_+kBuckets). */
    mutable std::vector<Bucket> buckets_;
    /** Occupancy bitmap: bit b set iff buckets_[b] is non-empty. */
    mutable std::vector<std::uint64_t> occWords_;
    /** Summary bitmap: bit w set iff occWords_[w] != 0. */
    mutable std::vector<std::uint64_t> sumWords_;
    /** Nodes (live or cancelled) currently linked in buckets. */
    mutable std::size_t bucketNodes_ = 0;

    /** Overflow heap for events beyond the bucket window. */
    mutable std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                HeapLater>
        heap_;

    /** Max tick popped so far; lower bound for all live events. */
    Tick cursor_ = 0;

    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t digest_ = 14695981039346656037ull; // FNV-1a offset
};

} // namespace uqsim

#endif // UQSIM_CORE_EVENT_QUEUE_HH
