// TierStore: the byte storage of one tier on one node. Enforces the
// capacity granted to the program on that device and charges simulated
// device time for every access. Contents are held in memory (the devices
// are simulated; see DESIGN.md §2) while all timing flows through the
// Device queueing model.
//
// Fault model: when constructed with a FaultInjector, every access first
// consults it. Transient faults charge the op's setup latency and return
// kIoError (the caller's RetryPolicy re-issues); permanent faults flip the
// store into the failed state, after which every access returns
// kUnavailable until the BufferManager drains the tier (FailAndDrain) and
// re-routes its pages.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mm/sim/device.h"
#include "mm/sim/fault.h"
#include "mm/storage/blob.h"
#include "mm/telemetry/sink.h"
#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::storage {

class TierStore {
 public:
  /// `device` outlives the store. `capacity` is the slice of the device
  /// granted to this program (Fig. 7 varies exactly this). `injector` is
  /// optional and not owned; when null the store never faults. `sink`
  /// receives per-tier byte counters and "tier" trace spans.
  TierStore(sim::Device* device, std::uint64_t capacity,
            sim::FaultInjector* injector = nullptr,
            telemetry::NodeSink sink = telemetry::NodeSink::Dummy());

  sim::TierKind kind() const { return device_->kind(); }
  /// Granted capacity; 0 once the tier has failed so placement skips it.
  std::uint64_t capacity() const { return failed() ? 0 : capacity_; }
  std::uint64_t used() const {
    MutexLock lock(mu_);
    return used_;
  }
  sim::Device& device() { return *device_; }
  const sim::Device& device() const { return *device_; }

  /// Writes a whole blob committed under `stamp`. Fails with
  /// kResourceExhausted when it does not fit; the caller (BufferManager)
  /// must evict/demote first. On success sets `*done` to the simulated
  /// completion time. `data` is consumed only on success, so the caller
  /// keeps the bytes for a retry or for placement on another tier.
  Status Put(const BlobId& id, std::vector<std::uint8_t>&& data,
             BlobStamp stamp, sim::SimTime now, sim::SimTime* done);

  /// Overwrites bytes [offset, offset+data.size()) of an existing blob and
  /// commits them: under the one lock, bumps the stamp's version and
  /// re-computes its CRC over the whole blob. Returns the new stamp.
  StatusOr<BlobStamp> PutPartial(const BlobId& id, std::uint64_t offset,
                                 const std::vector<std::uint8_t>& data,
                                 sim::SimTime now, sim::SimTime* done);

  /// Reads a whole blob.
  StatusOr<std::vector<std::uint8_t>> Get(const BlobId& id, sim::SimTime now,
                                          sim::SimTime* done) const;

  /// Reads a whole blob into a caller-provided buffer, reusing its
  /// capacity (zero-copy task path: tasks pass pooled page buffers).
  /// Returns the stamp the bytes were copied under.
  StatusOr<BlobStamp> GetInto(const BlobId& id, std::vector<std::uint8_t>* out,
                              sim::SimTime now, sim::SimTime* done) const;

  /// Reads bytes [offset, offset+size).
  StatusOr<std::vector<std::uint8_t>> GetPartial(const BlobId& id,
                                                 std::uint64_t offset,
                                                 std::uint64_t size,
                                                 sim::SimTime now,
                                                 sim::SimTime* done) const;

  /// Removes a blob and its stamp (no device charge: drop is a metadata
  /// operation).
  Status Erase(const BlobId& id);

  bool Contains(const BlobId& id) const;
  std::uint64_t BlobSize(const BlobId& id) const;
  std::uint64_t free_bytes() const {
    if (failed()) return 0;
    MutexLock lock(mu_);
    return capacity_ - used_;
  }
  std::size_t num_blobs() const {
    MutexLock lock(mu_);
    return blobs_.size();
  }

  /// Lists blob ids currently stored (snapshot).
  std::vector<BlobId> ListBlobs() const;

  // --- fault handling ---

  /// True once the tier has permanently failed.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Marks the tier permanently failed and drops all contents (bytes and
  /// stamps), returning
  /// the ids that were lost. Idempotent: a second call returns empty.
  /// No device time is charged — the device is gone, not busy.
  std::vector<BlobId> FailAndDrain();

  /// Flips one byte of a resident blob in place, leaving its stamp — silent
  /// media corruption for tests/fault drills. Bypasses the device model
  /// and the injector.
  Status CorruptBlob(const BlobId& id, std::uint64_t offset);

 private:
  /// Consults the injector before a device op. Returns non-OK when the op
  /// must fail (charging failed-attempt latency for transient faults);
  /// otherwise stores the latency-spike multiplier in `*time_factor`.
  Status InjectFault(bool is_write, sim::SimTime now, sim::SimTime* done,
                     double* time_factor) const;

  /// Records the byte counter and a "tier" span for one completed device op.
  void Record(bool is_write, std::uint64_t bytes, sim::SimTime now,
              sim::SimTime done) const;

  sim::Device* device_;
  std::uint64_t capacity_;
  sim::FaultInjector* injector_;
  telemetry::NodeSink sink_;
  telemetry::Counter* read_bytes_;   // mm.tier.<kind>_read_bytes
  telemetry::Counter* write_bytes_;  // mm.tier.<kind>_write_bytes
  mutable std::atomic<bool> failed_{false};
  mutable Mutex mu_;
  /// One resident blob: its bytes and the stamp they were committed under,
  /// one record so no reader can see one without the other.
  struct Blob {
    std::vector<std::uint8_t> bytes;
    BlobStamp stamp;
  };
  std::uint64_t used_ MM_GUARDED_BY(mu_) = 0;
  std::unordered_map<BlobId, Blob, BlobIdHash> blobs_ MM_GUARDED_BY(mu_);
};

}  // namespace mm::storage
