// What the paper's MemoryTasks (§III-B) carry in and out of a node's
// runtime: the recycled page buffers of their payloads (PagePool,
// PoolReturn) and the outcome each NodeRuntime entry point (GetPages,
// WritePartial, Score, StageOut, Erase) returns to its caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mm/sim/virtual_clock.h"
#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::core {

/// Thread-safe free-list of byte buffers recycled across runtime calls and
/// page frames. Page-sized payloads (GetPages faults, WritePartial
/// commits, StageOut staging, evicted pcache frames) churn at scan rate;
/// without pooling every one is a fresh heap allocation. Buffers are
/// bucketed by capacity; Acquire hits when a buffer of the exact size was
/// released before (page sizes are uniform per vector, so the hit rate on
/// the hot path approaches 1 after warmup).
///
/// Acquire never returns stale bytes to zero-expecting callers: use
/// AcquireZeroed wherever the buffer stands in for a fresh page.
class PagePool {
 public:
  /// `max_bytes` caps the total bytes parked in the pool; releases beyond
  /// the cap simply free the buffer.
  explicit PagePool(std::uint64_t max_bytes = 64ull << 20)
      : max_bytes_(max_bytes) {}

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// A buffer of exactly `bytes` size; contents unspecified.
  std::vector<std::uint8_t> Acquire(std::uint64_t bytes) {
    {
      MutexLock lock(mu_);
      auto it = buckets_.find(bytes);
      if (it != buckets_.end() && !it->second.empty()) {
        std::vector<std::uint8_t> buf = std::move(it->second.back());
        it->second.pop_back();
        pooled_bytes_ -= buf.capacity();
        buf.resize(bytes);
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return buf;
      }
    }
    allocations_.fetch_add(1, std::memory_order_relaxed);
    return std::vector<std::uint8_t>(bytes);
  }

  /// A buffer of exactly `bytes`, zero-filled — recycled pages must never
  /// leak a previous page's bytes into a logically-fresh page.
  std::vector<std::uint8_t> AcquireZeroed(std::uint64_t bytes) {
    std::vector<std::uint8_t> buf = Acquire(bytes);
    std::memset(buf.data(), 0, buf.size());
    return buf;
  }

  /// Returns a buffer to the pool (dropped when the pool is at capacity or
  /// the buffer is empty).
  void Release(std::vector<std::uint8_t>&& buf) {
    const std::uint64_t cap = buf.capacity();
    if (cap == 0) return;
    MutexLock lock(mu_);
    if (pooled_bytes_ + cap > max_bytes_) return;  // buf frees on scope exit
    pooled_bytes_ += cap;
    buf.clear();
    buckets_[cap].push_back(std::move(buf));
  }

  /// Fresh heap allocations made on behalf of callers (pool misses).
  std::uint64_t allocations() const {
    return allocations_.load(std::memory_order_relaxed);
  }
  /// Acquires served from the free list.
  std::uint64_t reuses() const {
    return reuses_.load(std::memory_order_relaxed);
  }
  std::uint64_t pooled_bytes() const {
    MutexLock lock(mu_);
    return pooled_bytes_;
  }

 private:
  // mm-verify: leaf-lock(free-list bookkeeping only, never calls out while held)
  mutable Mutex mu_;
  std::uint64_t max_bytes_;
  std::uint64_t pooled_bytes_ MM_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> reuses_{0};
  std::unordered_map<std::uint64_t, std::vector<std::vector<std::uint8_t>>>
      buckets_ MM_GUARDED_BY(mu_);  // keyed by capacity
};

/// RAII guard returning a buffer to its pool on every exit path (success
/// and error alike), so failed calls do not leak their payload buffers out
/// of the recycling loop.
class PoolReturn {
 public:
  PoolReturn(PagePool& pool, std::vector<std::uint8_t>& buf)
      : pool_(pool), buf_(buf) {}
  ~PoolReturn() {
    if (!buf_.empty() || buf_.capacity() > 0) pool_.Release(std::move(buf_));
  }
  PoolReturn(const PoolReturn&) = delete;
  PoolReturn& operator=(const PoolReturn&) = delete;

 private:
  PagePool& pool_;
  std::vector<std::uint8_t>& buf_;
};

/// One in-place backend write whose bytes already sit on the backend and
/// whose PFS time is still to be reserved: `bytes` from `start`, each
/// piece scaled by `time_factor` (an injected latency spike).
struct WritebackCharge {
  sim::SimTime start = 0.0;
  std::uint64_t bytes = 0;
  double time_factor = 1.0;
};

struct TaskOutcome {
  Status status;
  std::vector<std::uint8_t> data;  // for reads
  sim::SimTime done = 0.0;         // simulated completion time
  std::uint64_t version = 0;       // page write-version (see BlobLocation)
  /// For reads: the CRC of the stamp `data` was checked or stamped under,
  /// so a replica of `data` reuses it instead of recomputing it.
  std::uint32_t crc = 0;
  /// For write commits: the page version BEFORE this write. A writer's
  /// cached frame may adopt `version` only when its current frame version
  /// equals `prev_version` (otherwise another rank's bytes are missing
  /// from the frame and it must refetch at the next acquire).
  std::uint64_t prev_version = ~0ULL;
  /// For stage-outs: pages journaled and written in place, and their
  /// payload bytes (trimmed to the vector's logical extent).
  std::uint64_t pages_written = 0;
  std::uint64_t bytes_written = 0;
  /// For journaled stage-outs: the PFS charges of the in-place runs, which
  /// Service::FlushVector reserves once every owner has journaled. `done`
  /// is then the journal's durability, not the runs' end.
  std::vector<WritebackCharge> writeback;
};

}  // namespace mm::core
