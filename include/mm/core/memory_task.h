// MemoryTasks: the unit of work submitted by the MegaMmap library to the
// runtime (paper §III-B). Tasks carry the blob id, payload, and a simulated
// issue time; NodeRuntime::Submit runs each on the submitting thread, one
// at a time per node in submission order, against the node's
// BufferManager, metadata, and stagers, and returns the outcome.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mm/sim/virtual_clock.h"
#include "mm/storage/blob.h"
#include "mm/telemetry/trace.h"
#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::core {

/// Thread-safe free-list of byte buffers recycled across MemoryTasks and
/// page frames. Page-sized payloads (kGetPage faults, kWritePartial
/// commits, kStageOut staging, evicted pcache frames) churn at scan rate;
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
/// and error alike), so failed tasks do not leak their payload buffers out
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

struct TaskOutcome {
  Status status;
  std::vector<std::uint8_t> data;  // for reads
  sim::SimTime done = 0.0;         // simulated completion time
  std::uint64_t version = 0;       // page write-version (see BlobLocation)
  /// For write commits: the page version BEFORE this write. A writer's
  /// cached frame may adopt `version` only when its current frame version
  /// equals `prev_version` (otherwise another rank's bytes are missing
  /// from the frame and it must refetch at the next acquire).
  std::uint64_t prev_version = ~0ULL;
  /// For stage-outs: pages journaled and written in place, and their
  /// payload bytes (trimmed to the vector's logical extent).
  std::uint64_t pages_written = 0;
  std::uint64_t bytes_written = 0;
};

struct MemoryTask {
  enum class Kind : std::uint8_t {
    kGetPage,       // read of a run of n >= 1 consecutive pages
    kWritePartial,  // async dirty-region update (copy-on-write commit)
    kScore,         // prefetcher importance score for the Data Organizer
    kStageOut,      // persist one owner's dirty pages to the backend
    kErase,         // drop a page from the scache
  };

  Kind kind = Kind::kGetPage;
  std::uint64_t vector_id = 0;
  storage::BlobId id;  // the page; kGetPage: the run's first page
  std::uint64_t offset = 0;  // for partial ops, offset within the page
  std::uint64_t size = 0;    // kGetPage: bytes per page (page_bytes)
  std::vector<std::uint8_t> data;  // for writes
  float score = 1.0f;
  std::size_t from_node = 0;
  sim::SimTime issue_time = 0.0;
  /// Causal flow identity minted at the request origin (DESIGN.md §11).
  /// The runtime opens a child span linked to the origin's flow and
  /// installs the context while the task runs, so nested stager spans join
  /// it too. Invalid (zero) for background work — prefetch, scores, erases.
  telemetry::TraceContext tctx;
  /// True when this task is the terminal hop of an *async* flow (write
  /// commits): the task span closes the flow ('f') instead of a plain step
  /// ('t'), since no origin span outlives it.
  bool trace_terminal = false;
  /// kGetPage stage-ahead (Service::StageAhead): the pages are placed in
  /// the scache only. Staged bytes move into it, and any other bytes the
  /// task read go back to the node's pool, so the outcomes carry a status
  /// and a `done` time but no data.
  bool placement_only = false;
  /// kStageOut: the batch's page indices on this owner, ascending.
  /// kGetPage: the run's consecutive pages, `id` being the first. Last, so
  /// the fields every task touches keep their offsets.
  std::vector<std::uint64_t> pages;
};

}  // namespace mm::core
