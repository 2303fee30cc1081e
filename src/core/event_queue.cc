#include "core/event_queue.hh"

#include <utility>

#include "core/logging.hh"

namespace uqsim {

namespace detail {

EventPool::~EventPool()
{
    forEachNode([](EventNode &node) { node.~EventNode(); });
    for (EventNode *chunk : chunks)
        ::operator delete(chunk);
}

EventNode *
EventPool::allocate()
{
    if (freeList) {
        EventNode *node = freeList;
        freeList = node->next;
        return node;
    }
    if (carved == kChunkNodes) {
        chunks.push_back(static_cast<EventNode *>(
            ::operator new(sizeof(EventNode) * kChunkNodes)));
        carved = 0;
    }
    return ::new (chunks.back() + carved++) EventNode;
}

void
EventPool::release(EventNode *node)
{
    node->next = freeList;
    freeList = node;
}

} // namespace detail

namespace {

/** 64-bit FNV-1a step over one 64-bit word. */
inline std::uint64_t
fnv1aWord(std::uint64_t hash, std::uint64_t word)
{
    hash ^= word;
    return hash * 1099511628211ull;
}

} // namespace

EventQueue::EventQueue()
    : pool_(new detail::EventPool),
      buckets_(kBuckets),
      occWords_(kWords, 0),
      sumWords_(kWords / 64, 0)
{}

EventQueue::~EventQueue()
{
    pool_->forEachNode([](detail::EventNode &node) {
        EventCallback dead = std::move(node.cb);
    });
    pool_->unref();
}

detail::EventNode *
EventQueue::enqueue(Tick when)
{
    detail::EventNode *node = pool_->allocate();
    node->when = when;
    node->seq = nextSeq_++;
    node->next = nullptr;
    node->handleRefs = 1; // adopted by the returned handle
    node->status = detail::EventStatus::Scheduled;
    node->inQueue = true;

    // Unsigned compare also routes when < cursor_ (never produced by
    // Simulator, which forbids scheduling in the past) to the heap,
    // which handles arbitrary ticks.
    if (when - cursor_ < kBuckets) {
        Bucket &b = buckets_[when & kBucketMask];
        if (b.tail) {
            b.tail->next = node;
        } else {
            b.head = node;
            markOccupied(when & kBucketMask);
        }
        b.tail = node;
        ++bucketNodes_;
    } else {
        heap_.push(HeapEntry{when, node->seq, node});
    }
    ++pool_->liveCount;
    return node;
}

void
EventQueue::markOccupied(std::size_t bucket) const
{
    occWords_[bucket >> 6] |= 1ull << (bucket & 63);
    sumWords_[bucket >> 12] |= 1ull << ((bucket >> 6) & 63);
}

void
EventQueue::clearOccupied(std::size_t bucket) const
{
    occWords_[bucket >> 6] &= ~(1ull << (bucket & 63));
    if (occWords_[bucket >> 6] == 0)
        sumWords_[bucket >> 12] &= ~(1ull << ((bucket >> 6) & 63));
}

void
EventQueue::retire(detail::EventNode *node) const
{
    node->inQueue = false;
    // Drop the callback even while handles keep the node: a cancelled
    // closure often owns the very handle naming it (an attempt and its
    // timeout), and a kept callback would pin both for good. It dies
    // after the bookkeeping, since its own handles re-enter release().
    EventCallback dead = std::move(node->cb);
    if (node->handleRefs == 0)
        pool_->release(node);
}

std::size_t
EventQueue::nextOccupiedWord(std::size_t word) const
{
    // Ring-forward scan of the summary bitmap for the first non-empty
    // occupancy word strictly after `word`; after a full wrap the
    // current word itself may be returned again (its low, not-yet-
    // visited buckets are the ring-farthest region).
    const std::size_t nSum = sumWords_.size();
    const std::size_t bit = word & 63;
    const std::uint64_t afterMask = bit == 63 ? 0 : ~0ull << (bit + 1);
    for (std::size_t i = 0; i <= nSum; ++i) {
        const std::size_t idx = ((word >> 6) + i) % nSum;
        std::uint64_t sbits = sumWords_[idx];
        if (i == 0)
            sbits &= afterMask;
        else if (i == nSum)
            sbits &= ~afterMask;
        if (sbits)
            return (idx << 6) +
                   static_cast<std::size_t>(__builtin_ctzll(sbits));
    }
    return kInvalidBucket;
}

std::size_t
EventQueue::firstLiveBucket() const
{
    if (bucketNodes_ == 0)
        return kInvalidBucket;

    // Walk the occupancy bitmap ring-forward from the cursor bucket.
    // Live bucketed events have ticks in [cursor_, cursor_+kBuckets),
    // so ring order is tick order; cancelled nodes (whose ticks may
    // trail the cursor) are purged as they are encountered.
    const std::size_t start =
        static_cast<std::size_t>(cursor_) & kBucketMask;
    std::size_t word = start >> 6;
    std::uint64_t bits = occWords_[word] & (~0ull << (start & 63));
    while (true) {
        while (bits) {
            const std::size_t bucket =
                (word << 6) +
                static_cast<std::size_t>(__builtin_ctzll(bits));
            Bucket &b = buckets_[bucket];
            while (b.head &&
                   b.head->status == detail::EventStatus::Cancelled) {
                detail::EventNode *dead = b.head;
                b.head = dead->next;
                --bucketNodes_;
                retire(dead);
            }
            if (b.head)
                return bucket;
            b.tail = nullptr;
            clearOccupied(bucket);
            if (bucketNodes_ == 0)
                return kInvalidBucket;
            bits &= bits - 1;
        }
        word = nextOccupiedWord(word);
        if (word == kInvalidBucket)
            return kInvalidBucket;
        bits = occWords_[word];
    }
}

void
EventQueue::purgeHeapTop() const
{
    while (!heap_.empty() &&
           heap_.top().node->status == detail::EventStatus::Cancelled) {
        detail::EventNode *dead = heap_.top().node;
        heap_.pop();
        retire(dead);
    }
}

detail::EventNode *
EventQueue::peekNext(std::size_t *bucketIndex) const
{
    const std::size_t bucket = firstLiveBucket();
    detail::EventNode *fromBucket =
        bucket == kInvalidBucket ? nullptr : buckets_[bucket].head;
    purgeHeapTop();
    detail::EventNode *fromHeap =
        heap_.empty() ? nullptr : heap_.top().node;

    detail::EventNode *winner;
    if (fromBucket && fromHeap) {
        const bool bucketWins =
            fromBucket->when != fromHeap->when
                ? fromBucket->when < fromHeap->when
                : fromBucket->seq < fromHeap->seq;
        winner = bucketWins ? fromBucket : fromHeap;
    } else {
        winner = fromBucket ? fromBucket : fromHeap;
    }
    *bucketIndex =
        (winner && winner == fromBucket) ? bucket : kInvalidBucket;
    return winner;
}

Tick
EventQueue::nextTick() const
{
    std::size_t bucket;
    const detail::EventNode *node = peekNext(&bucket);
    if (!node)
        panic("EventQueue::nextTick() on empty queue");
    return node->when;
}

std::pair<Tick, EventCallback>
EventQueue::popNext()
{
    std::size_t bucket;
    detail::EventNode *node = peekNext(&bucket);
    if (!node)
        panic("EventQueue::popNext() on empty queue");
    pop(node, bucket);
    // Move the callback out before recycling: it may schedule new
    // events, which mutates buckets/heap (and may reuse this node).
    EventCallback cb = std::move(node->cb);
    const Tick when = node->when;
    retire(node);
    return {when, std::move(cb)};
}

bool
EventQueue::runNext(Tick horizon, Tick &clock)
{
    std::size_t bucket;
    detail::EventNode *node = peekNext(&bucket);
    if (!node || node->when > horizon)
        return false;
    pop(node, bucket);
    clock = node->when;
    // Run in place: the node is unlinked but still marked in-queue,
    // so new events take other nodes, and a handle released by the
    // callback itself cannot recycle this one under it.
    node->cb();
    retire(node);
    return true;
}

void
EventQueue::pop(detail::EventNode *node, std::size_t bucket)
{
    if (bucket != kInvalidBucket) {
        Bucket &b = buckets_[bucket];
        b.head = node->next;
        if (!b.head) {
            b.tail = nullptr;
            clearOccupied(bucket);
        }
        --bucketNodes_;
    } else {
        heap_.pop();
    }

    node->status = detail::EventStatus::Fired;
    --pool_->liveCount;
    ++executed_;
    digest_ = fnv1aWord(fnv1aWord(digest_, node->when), node->seq);
    if (node->when > cursor_)
        cursor_ = node->when;
}

} // namespace uqsim
