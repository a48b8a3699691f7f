#pragma once
// Fixed-capacity ring buffer of flits: the input-VC FIFO.
//
// Input VCs are bounded by the configured buffer depth (credits enforce it),
// so the std::deque previously used — which allocates a chunk map per
// instance and scatters flits across the heap — is replaced by a ring whose
// slots live inline for the common shallow depths and in one flat heap
// array otherwise.  A 10x10/24-VC network has 12,000 input VCs; keeping
// them allocation-free and contiguous is a measurable share of the cycle
// kernel (see docs/performance.md).
//
// Layout: four inline 12-byte flits (48 bytes), the heap pointer (8) and
// three 16-bit indices (6) make 62 bytes, padded to 64 — the whole of an
// InputVc, which is cache-line aligned, so a ring never straddles two
// lines.  The 16-bit indices bound the capacity at kMaxCapacity; the
// configuration refuses deeper buffers before any ring is built.
//
// Buffered flits reference their message by *slot* (Flit::msg): a slot is
// recycled only after the tail flit has left every ring in the network
// (retirement happens at ejection), so a flit sitting here always refers
// to the live message occupying that slot.

#include <cassert>
#include <cstdint>
#include <memory>

#include "ftmesh/router/flit.hpp"

namespace ftmesh::router {

class FlitRing {
 public:
  /// Depths up to this many flits need no heap allocation.
  static constexpr int kInlineCapacity = 4;
  /// Largest capacity the 16-bit indices address.
  static constexpr int kMaxCapacity = 0xffff;

  FlitRing() = default;

  /// Sets the fixed capacity and empties the ring.  Called once per input
  /// VC at router construction (capacity == buffer depth).
  void reset_capacity(int capacity) {
    assert(capacity >= 1 && capacity <= kMaxCapacity);
    cap_ = static_cast<std::uint16_t>(capacity);
    head_ = 0;
    count_ = 0;
    heap_ = capacity > kInlineCapacity
                ? std::make_unique<Flit[]>(static_cast<std::size_t>(capacity))
                : nullptr;
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] int capacity() const noexcept { return cap_; }

  [[nodiscard]] const Flit& front() const noexcept {
    assert(count_ > 0);
    return slots()[head_];
  }

  [[nodiscard]] const Flit& back() const noexcept {
    assert(count_ > 0);
    return slots()[wrap(head_ + count_ - 1u)];
  }

  void push_back(const Flit& f) noexcept {
    assert(count_ < cap_ && "input VC over capacity: credit protocol violated");
    slots()[wrap(head_ + count_)] = f;
    ++count_;
  }

  void pop_front() noexcept {
    assert(count_ > 0);
    head_ = wrap(head_ + 1);
    --count_;
  }

  /// i-th flit from the front (0 == front()).
  [[nodiscard]] const Flit& operator[](std::size_t i) const noexcept {
    assert(i < count_);
    return slots()[wrap(head_ + static_cast<std::uint32_t>(i))];
  }

  /// Removes every flit matching `pred`, preserving the order of survivors.
  /// Returns the number removed.  Used only by the (rare) fault-recovery
  /// purge, so a simple in-place compaction is fine.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    Flit* s = slots();
    std::uint16_t kept = 0;
    for (std::uint16_t i = 0; i < count_; ++i) {
      const Flit& f = s[wrap(head_ + i)];
      if (pred(f)) continue;
      s[wrap(head_ + kept)] = f;
      ++kept;
    }
    const std::size_t removed = count_ - kept;
    count_ = kept;
    return removed;
  }

  class const_iterator {
   public:
    const_iterator(const FlitRing* ring, std::size_t i) noexcept
        : ring_(ring), i_(i) {}
    const Flit& operator*() const noexcept { return (*ring_)[i_]; }
    const Flit* operator->() const noexcept { return &(*ring_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    const FlitRing* ring_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, count_}; }

 private:
  /// Folds `i` < 2 * capacity back into [0, capacity).  Takes 32 bits:
  /// head + count reaches 2 * 65535 - 1, past the 16-bit range.
  [[nodiscard]] std::uint16_t wrap(std::uint32_t i) const noexcept {
    return static_cast<std::uint16_t>(i >= cap_ ? i - cap_ : i);
  }
  [[nodiscard]] Flit* slots() noexcept {
    return heap_ ? heap_.get() : inline_;
  }
  [[nodiscard]] const Flit* slots() const noexcept {
    return heap_ ? heap_.get() : inline_;
  }

  Flit inline_[kInlineCapacity] = {};
  std::unique_ptr<Flit[]> heap_;  ///< only for depth > kInlineCapacity
  std::uint16_t cap_ = 0;
  std::uint16_t head_ = 0;
  std::uint16_t count_ = 0;
};

}  // namespace ftmesh::router
