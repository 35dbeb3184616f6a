// Per-thread bounded record rings, obs-internal: span tracing
// (trace.cpp) and the diagnostic event log (diag.cpp) each keep one
// RingSet over their own slot type.
//
// Each thread owns one ring and is its only writer.  A slot's fields
// are relaxed atomics; record() fills the next slot and publishes it by
// a release store of the ring head, and a reader acquires the head
// before loading the published slots, so collection while other
// threads record races neither with the writes nor under TSan.  When a
// ring wraps, the oldest records are overwritten and counted as
// dropped.
//
// A Slot type provides store(args...), which writes its fields relaxed,
// and bool load(Record&) const, which reads them into a record type
// with an `int tid` member and returns false for a slot never written.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace htmpll::obs::detail {

template <class Slot>
class Ring {
 public:
  Ring(int tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity), slots_(capacity) {}

  template <class... Fields>
  void record(const Fields&... fields) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h % capacity_].store(fields...);
    head_.store(h + 1, std::memory_order_release);
  }

  template <class Record>
  void collect_into(std::vector<Record>& out) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, capacity_);
    for (std::uint64_t i = h - n; i < h; ++i) {
      Record r;
      if (slots_[i % capacity_].load(r)) {
        r.tid = tid_;
        out.push_back(r);
      }
    }
  }

  std::uint64_t dropped() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > capacity_ ? h - capacity_ : 0;
  }

  void clear() { head_.store(0, std::memory_order_release); }

 private:
  int tid_;
  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Every thread's ring of one Slot type, each of `capacity` slots.  A
/// thread registers its ring (under the set's mutex) at its first
/// local() call; its tid is its registration index.  The thread-local
/// handle is per Slot type, so a process keeps one RingSet per Slot
/// type, and never destroys it (rings stay readable after their thread
/// exits and during late static destruction).
template <class Slot>
class RingSet {
 public:
  explicit RingSet(std::size_t capacity) : capacity_(capacity) {}

  /// The calling thread's ring.
  Ring<Slot>& local() {
    thread_local Ring<Slot>* ring = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      rings_.push_back(std::make_unique<Ring<Slot>>(
          static_cast<int>(rings_.size()), capacity_));
      return rings_.back().get();
    }();
    return *ring;
  }

  /// Appends every ring's retained records, ring by ring, oldest first.
  template <class Record>
  void collect_into(std::vector<Record>& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_) r->collect_into(out);
  }

  /// Records lost to wrap-around since the last clear(), over all rings.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->dropped();
    return n;
  }

  /// Drops every retained record (rings stay registered).  Only safe at
  /// quiescence.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_) r->clear();
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring<Slot>>> rings_;
};

}  // namespace htmpll::obs::detail
