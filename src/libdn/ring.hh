/**
 * @file
 * Bounded power-of-two ring buffer — the storage under the token
 * channels (libdn::TokenChannel, libdn::ReliableTokenChannel).
 *
 * Besides the FIFO operations it supports the few unusual ones the
 * reliable-delivery machinery performs on the same queue:
 *
 *  - pushFront(): a NAKed token's retransmitted copy re-enters at the
 *                 head (ReliableTokenChannel::scheduleRetransmit pops
 *                 the corrupted head and requeues the pristine copy in
 *                 its place);
 *  - front() is mutable: the consumer caches the CRC verdict in the
 *                 head entry ("verified" flag);
 *  - at(i):       the consumer scans the retransmit buffer for a
 *                 sequence number.
 *
 * Capacity is rounded up to a power of two; indices grow unbounded
 * and are masked on access. Overflow is a hard assertion, not a
 * wait: callers size the ring from a proven occupancy bound, and a
 * full ring means that bound — not the data flow — is broken. Unlike
 * std::deque, pushes never allocate once the ring is built.
 */

#ifndef FIREAXE_LIBDN_RING_HH
#define FIREAXE_LIBDN_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace fireaxe::libdn {

template <typename T>
class Ring
{
  public:
    explicit Ring(size_t min_capacity = 2)
    {
        size_t cap = 2;
        while (cap < min_capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    size_t capacity() const { return mask_ + 1; }
    size_t size() const { return tail_ - head_; }
    bool empty() const { return tail_ == head_; }

    /** Append one entry. Asserts on overflow (see file comment). */
    void
    pushBack(T value)
    {
        FIREAXE_ASSERT(size() < capacity(), "Ring overflow (cap ",
                       capacity(), ")");
        slots_[tail_++ & mask_] = std::move(value);
    }

    T &
    front()
    {
        FIREAXE_ASSERT(!empty(), "Ring front of empty ring");
        return slots_[head_ & mask_];
    }

    const T &
    front() const
    {
        FIREAXE_ASSERT(!empty(), "Ring front of empty ring");
        return slots_[head_ & mask_];
    }

    /** @p i counts from the head; i < size() required. */
    T &
    at(size_t i)
    {
        FIREAXE_ASSERT(i < size(), "Ring at(", i, ") of ", size());
        return slots_[(head_ + i) & mask_];
    }

    const T &
    at(size_t i) const
    {
        FIREAXE_ASSERT(i < size(), "Ring at(", i, ") of ", size());
        return slots_[(head_ + i) & mask_];
    }

    void
    popFront()
    {
        FIREAXE_ASSERT(!empty(), "Ring pop of empty ring");
        slots_[head_++ & mask_] = T{}; // release payload memory eagerly
    }

    /** Requeue one entry at the head (the slot below head is free as
     *  long as the ring is not full). */
    void
    pushFront(T value)
    {
        FIREAXE_ASSERT(size() < capacity(),
                       "Ring pushFront overflow (cap ", capacity(),
                       ")");
        slots_[--head_ & mask_] = std::move(value);
    }

  private:
    std::vector<T> slots_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t tail_ = 0;
};

} // namespace fireaxe::libdn

#endif // FIREAXE_LIBDN_RING_HH
