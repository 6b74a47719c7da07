/**
 * @file
 * A fixed-capacity FIFO, the building block of PIPE's architectural
 * queues (LAQ, LDQ, SAQ, SDQ) and of the instruction queue / queue
 * buffer in the fetch unit.
 */

#ifndef PIPESIM_QUEUE_FIXED_QUEUE_HH
#define PIPESIM_QUEUE_FIXED_QUEUE_HH

#include <cstddef>
#include <vector>

#include "common/log.hh"

namespace pipesim
{

/**
 * Bounded FIFO queue: a ring over storage sized once, at
 * construction, so pushes and pops never allocate.
 *
 * Overflow and underflow are simulator bugs (the issue logic must
 * check full()/empty() first), so they panic.
 */
template <typename T>
class FixedQueue
{
  public:
    explicit FixedQueue(std::size_t capacity) : _capacity(capacity)
    {
        PIPESIM_ASSERT(capacity > 0, "queue capacity must be positive");
        _items.resize(capacity);
    }

    bool empty() const { return _size == 0; }
    bool full() const { return _size >= _capacity; }
    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _capacity; }
    std::size_t freeSlots() const { return _capacity - _size; }

    /** Push onto the tail; queue must not be full. */
    void
    push(T item)
    {
        PIPESIM_ASSERT(!full(), "push to full queue");
        _items[slot(_size)] = std::move(item);
        ++_size;
    }

    /** The head element; queue must not be empty. */
    const T &
    front() const
    {
        PIPESIM_ASSERT(!empty(), "front of empty queue");
        return _items[_head];
    }

    /** Pop and return the head element; queue must not be empty. */
    T
    pop()
    {
        PIPESIM_ASSERT(!empty(), "pop from empty queue");
        T item = std::move(_items[_head]);
        _head = slot(1);
        --_size;
        return item;
    }

    /** Random access from the head (0 == front) for scan logic. */
    const T &
    at(std::size_t idx) const
    {
        PIPESIM_ASSERT(idx < _size, "queue index out of range");
        return _items[slot(idx)];
    }

    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

  private:
    /** Storage index of the element @p idx places past the head. */
    std::size_t
    slot(std::size_t idx) const
    {
        const std::size_t i = _head + idx;
        return i < _capacity ? i : i - _capacity;
    }

    std::size_t _capacity;
    std::vector<T> _items;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace pipesim

#endif // PIPESIM_QUEUE_FIXED_QUEUE_HH
