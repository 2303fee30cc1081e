/**
 * @file
 * Shard-local object pools and slot tables.
 *
 * `Pool<T>` recycles T objects through a free list and hands them out
 * as `PoolRef<T>`: an 8-byte intrusive handle whose count lives in the
 * pooled node and is not atomic. The last handle to go destroys the
 * object and returns its node to the free list. Like the event queue's
 * node pool (core/event_queue.hh), a pool is carved lazily out of
 * chunks from plain `operator new`, so it touches memory only as its
 * occupancy grows and an allocation counter still sees every byte.
 *
 * Lifetime: a handle keeps its pool alive. When the owning Pool object
 * is destroyed while handles are still out (a queued event may outlive
 * the component that made it), the pool is freed by the release of its
 * last object instead.
 *
 * Threading: a pool and every handle into it belong to one shard and
 * are touched only by the thread running that shard. A cross-shard
 * message carries plain ids, never a handle.
 *
 * `SlotTable<T>` parks values under small integer ids with a free list
 * of ids: a layer parks a caller's continuation there and schedules an
 * event that captures only the id.
 */

#ifndef UQSIM_CORE_POOL_HH
#define UQSIM_CORE_POOL_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace uqsim {

template <typename T>
class Pool;
template <typename T>
class PoolRef;

namespace detail {

template <typename T>
struct PoolImpl;

/** One pooled object plus its count; `nextFree` links free nodes. */
template <typename T>
struct PoolNode
{
    PoolNode() {}
    ~PoolNode() {}

    union
    {
        T value;
        PoolNode *nextFree;
    };
    std::uint32_t refs = 0;
    PoolImpl<T> *pool = nullptr;
};

template <typename T>
struct PoolImpl
{
    using Node = PoolNode<T>;
    static constexpr std::size_t kChunkNodes = 64;
    static_assert(alignof(Node) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pool chunks come from plain operator new");

    std::vector<Node *> chunks;
    /** Nodes constructed so far in the newest chunk. */
    std::size_t carved = kChunkNodes;
    Node *freeList = nullptr;
    /** Objects alive right now. */
    std::size_t live = 0;
    /** The owning Pool is gone; the last release frees this. */
    bool orphaned = false;

    PoolImpl() = default;
    PoolImpl(const PoolImpl &) = delete;
    PoolImpl &operator=(const PoolImpl &) = delete;

    ~PoolImpl()
    {
        // Every object is dead by now, so only the nodes go.
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const std::size_t n =
                c + 1 == chunks.size() ? carved : kChunkNodes;
            for (std::size_t i = 0; i < n; ++i)
                chunks[c][i].~Node();
            ::operator delete(chunks[c]);
        }
    }

    Node *
    take()
    {
        Node *node;
        if (freeList) {
            node = freeList;
            freeList = node->nextFree;
        } else {
            if (carved == kChunkNodes) {
                chunks.push_back(static_cast<Node *>(
                    ::operator new(sizeof(Node) * kChunkNodes)));
                carved = 0;
            }
            node = ::new (chunks.back() + carved++) Node;
            node->pool = this;
        }
        ++live;
        return node;
    }

    /** Destroy @p node's object and recycle the node. */
    void
    release(Node *node)
    {
        // The object may hold handles into this very pool; they are
        // released while `live` still counts this node, so the pool
        // cannot be freed under our feet.
        node->value.~T();
        node->nextFree = freeList;
        freeList = node;
        if (--live == 0 && orphaned)
            delete this;
    }

    void
    orphan()
    {
        if (live == 0)
            delete this;
        else
            orphaned = true;
    }
};

} // namespace detail

/**
 * Counted handle to one pooled object (see file comment). Copying
 * counts; the last handle's destruction recycles the object.
 */
template <typename T>
class PoolRef
{
  public:
    PoolRef() noexcept = default;
    PoolRef(std::nullptr_t) noexcept {}

    PoolRef(const PoolRef &other) noexcept : node_(other.node_)
    {
        if (node_)
            ++node_->refs;
    }

    PoolRef(PoolRef &&other) noexcept
        : node_(std::exchange(other.node_, nullptr))
    {}

    /** Unified copy/move assignment (copy-and-swap). */
    PoolRef &
    operator=(PoolRef other) noexcept
    {
        std::swap(node_, other.node_);
        return *this;
    }

    ~PoolRef() { reset(); }

    void
    reset() noexcept
    {
        if (Node *n = std::exchange(node_, nullptr))
            if (--n->refs == 0)
                n->pool->release(n);
    }

    T *get() const noexcept { return node_ ? &node_->value : nullptr; }
    T &operator*() const noexcept { return node_->value; }
    T *operator->() const noexcept { return &node_->value; }
    explicit operator bool() const noexcept { return node_ != nullptr; }

    friend bool
    operator==(const PoolRef &a, const PoolRef &b) noexcept
    {
        return a.node_ == b.node_;
    }

  private:
    friend class Pool<T>;
    using Node = detail::PoolNode<T>;

    /** Counts one more reference to @p node. */
    explicit PoolRef(Node *node) noexcept : node_(node) { ++node_->refs; }

    Node *node_ = nullptr;
};

/**
 * The owner of a pool of T (see file comment). Not copyable; its
 * destruction hands the memory to the last outstanding handle.
 */
template <typename T>
class Pool
{
  public:
    Pool() : impl_(new detail::PoolImpl<T>) {}
    ~Pool() { impl_->orphan(); }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** A value-initialized object from the pool. */
    PoolRef<T>
    make()
    {
        detail::PoolNode<T> *node = impl_->take();
        ::new (&node->value) T();
        return PoolRef<T>(node);
    }

    /** Objects alive right now. */
    std::size_t live() const { return impl_->live; }

  private:
    detail::PoolImpl<T> *impl_;
};

/**
 * Values parked under small integer ids (see file comment). Ids are
 * reused most-recently-freed first; the table grows and never shrinks.
 */
template <typename T>
class SlotTable
{
  public:
    /** Park @p value; @return its id. */
    std::uint32_t
    park(T value)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(value));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t id = free_.back();
        free_.pop_back();
        slots_[id] = std::move(value);
        return id;
    }

    /**
     * Take the value parked under @p id and free the id. The slot keeps
     * the moved-from value, so T's moved-from state must own nothing.
     */
    T
    take(std::uint32_t id)
    {
        T value = std::move(slots_[id]);
        free_.push_back(id);
        return value;
    }

    /** The value parked under @p id. */
    T &operator[](std::uint32_t id) { return slots_[id]; }

  private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace uqsim

#endif // UQSIM_CORE_POOL_HH
