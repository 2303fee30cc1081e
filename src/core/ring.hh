/**
 * @file
 * A grow-only FIFO ring buffer.
 *
 * The queues on the request path (an instance's arrivals, a server's
 * pending tasks, a connection pool's waiters, the admission classes)
 * hover around a small depth. std::deque allocates and frees a chunk
 * each time such a queue crosses a chunk boundary; a Ring keeps its
 * power-of-two buffer once grown, so steady state allocates nothing.
 */

#ifndef UQSIM_CORE_RING_HH
#define UQSIM_CORE_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

namespace uqsim {

/**
 * FIFO of T over a power-of-two circular buffer. T must be default
 * constructible and move assignable; a vacated slot is reset to T().
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    push_back(T value)
    {
        if (size_ == cap_)
            grow();
        buf_[(head_ + size_) & (cap_ - 1)] = std::move(value);
        ++size_;
    }

    T &front() { return buf_[head_]; }

    /** Element @p i counted from the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }

    void
    pop_front()
    {
        buf_[head_] = T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Remove element @p i, keeping the order of the rest. */
    void
    erase(std::size_t i)
    {
        for (; i + 1 < size_; ++i)
            (*this)[i] = std::move((*this)[i + 1]);
        (*this)[size_ - 1] = T();
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

  private:
    void
    grow()
    {
        const std::size_t cap = cap_ ? cap_ * 2 : 8;
        auto buf = std::make_unique<T[]>(cap);
        for (std::size_t i = 0; i < size_; ++i)
            buf[i] = std::move((*this)[i]);
        buf_ = std::move(buf);
        cap_ = cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace uqsim

#endif // UQSIM_CORE_RING_HH
