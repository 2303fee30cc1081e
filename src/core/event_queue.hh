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
 * pooled through an intrusive free list, so steady-state scheduling
 * performs no allocation. The execution order is exactly the global
 * (tick, sequence-number) order the old heap implementation produced,
 * and a running FNV-1a digest over every executed (tick, seq) pair lets
 * two runs be proven identical (see executionDigest()).
 */

#ifndef UQSIM_CORE_EVENT_QUEUE_HH
#define UQSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/types.hh"

namespace uqsim {

/** Callback type invoked when an event fires. */
using EventCallback = std::function<void()>;

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
 * shared-state semantics) without a per-event heap allocation.
 */
struct EventPool
{
    static constexpr std::size_t kChunkNodes = 4096;

    std::vector<std::unique_ptr<EventNode[]>> chunks;
    EventNode *freeList = nullptr;
    /** Scheduled-and-not-cancelled events (shared so handles can
     *  decrement it on cancellation). */
    std::uint64_t liveCount = 0;

    /** Pop a node off the free list, growing the pool if needed. */
    EventNode *allocate();

    /** Return a retired, unreferenced (and callback-free) node to the
     *  free list. */
    void release(EventNode *node);
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
        if (node_)
            ++node_->handleRefs;
    }

    EventHandle(EventHandle &&other) noexcept
        : pool_(std::move(other.pool_)), node_(other.node_)
    {
        other.node_ = nullptr;
    }

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
    EventHandle(std::shared_ptr<detail::EventPool> pool,
                detail::EventNode *node)
        : pool_(std::move(pool)), node_(node)
    {}

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
        pool_.reset();
    }

    std::shared_ptr<detail::EventPool> pool_;
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
     * Schedule @p cb to fire at absolute time @p when.
     * @return a handle that may be used to cancel the event.
     */
    EventHandle schedule(Tick when, EventCallback cb);

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
     * Pop the earliest live event *without* running it. The caller
     * (Simulator) advances its clock to the returned tick first and
     * then invokes the callback, so event handlers always observe the
     * correct current time.
     * @pre !empty()
     */
    std::pair<Tick, EventCallback> popNext();

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

    std::shared_ptr<detail::EventPool> pool_;

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
