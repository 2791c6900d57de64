#include "mm/storage/tier_store.h"

#include <algorithm>
#include <cstring>

#include "mm/util/hash.h"

namespace mm::storage {

namespace {

// Per-tier metric handles are resolved once per store; the names are spelt
// out per kind so they stay literal (lint rule MML006 validates literals).
telemetry::Counter* TierReadCounter(telemetry::NodeSink sink,
                                    sim::TierKind kind) {
  switch (kind) {
    case sim::TierKind::kDram:
      return sink.metrics->GetCounter("mm.tier.dram_read_bytes");
    case sim::TierKind::kNvme:
      return sink.metrics->GetCounter("mm.tier.nvme_read_bytes");
    case sim::TierKind::kSsd:
      return sink.metrics->GetCounter("mm.tier.ssd_read_bytes");
    case sim::TierKind::kHdd:
      return sink.metrics->GetCounter("mm.tier.hdd_read_bytes");
    default:
      return sink.metrics->GetCounter("mm.tier.pfs_read_bytes");
  }
}

telemetry::Counter* TierWriteCounter(telemetry::NodeSink sink,
                                     sim::TierKind kind) {
  switch (kind) {
    case sim::TierKind::kDram:
      return sink.metrics->GetCounter("mm.tier.dram_write_bytes");
    case sim::TierKind::kNvme:
      return sink.metrics->GetCounter("mm.tier.nvme_write_bytes");
    case sim::TierKind::kSsd:
      return sink.metrics->GetCounter("mm.tier.ssd_write_bytes");
    case sim::TierKind::kHdd:
      return sink.metrics->GetCounter("mm.tier.hdd_write_bytes");
    default:
      return sink.metrics->GetCounter("mm.tier.pfs_write_bytes");
  }
}

}  // namespace

TierStore::TierStore(sim::Device* device, std::uint64_t capacity,
                     sim::FaultInjector* injector, telemetry::NodeSink sink)
    : device_(device),
      capacity_(capacity),
      injector_(injector),
      sink_(sink),
      read_bytes_(TierReadCounter(sink, device->kind())),
      write_bytes_(TierWriteCounter(sink, device->kind())) {}

void TierStore::Record(bool is_write, std::uint64_t bytes, sim::SimTime now,
                       sim::SimTime done) const {
  (is_write ? write_bytes_ : read_bytes_)->Inc(bytes);
  sink_.trace->Complete(is_write ? "tier_write" : "tier_read", "tier",
                        sink_.node, static_cast<int>(kind()), now, done);
}

Status TierStore::InjectFault(bool is_write, sim::SimTime now,
                              sim::SimTime* done, double* time_factor) const {
  if (failed_.load(std::memory_order_acquire)) {
    return Unavailable("tier " + std::string(sim::TierKindName(kind())) +
                       " has failed");
  }
  if (injector_ == nullptr) return Status::Ok();
  sim::FaultInjector::Decision d = injector_->OnDeviceOp(kind());
  switch (d.kind) {
    case sim::FaultInjector::Decision::Kind::kPermanent:
      failed_.store(true, std::memory_order_release);
      return Unavailable("tier " + std::string(sim::TierKindName(kind())) +
                         " has failed");
    case sim::FaultInjector::Decision::Kind::kTransient: {
      // A failed attempt still occupies the device for its setup latency
      // (scaled if the same op also drew a spike).
      double lat = is_write ? device_->spec().write_latency_s
                            : device_->spec().read_latency_s;
      sim::SimTime end = device_->Stall(now, lat * d.spike_factor);
      if (done != nullptr) *done = std::max(*done, end);
      return IoError("injected transient fault on tier " +
                     std::string(sim::TierKindName(kind())));
    }
    case sim::FaultInjector::Decision::Kind::kOk:
      break;
  }
  *time_factor = d.spike_factor;
  return Status::Ok();
}

Status TierStore::Put(const BlobId& id, std::vector<std::uint8_t>&& data,
                      BlobStamp stamp, sim::SimTime now, sim::SimTime* done) {
  double factor = 1.0;
  MM_RETURN_IF_ERROR(InjectFault(/*is_write=*/true, now, done, &factor));
  std::uint64_t size = data.size();
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(id);
    std::uint64_t old_size = it == blobs_.end() ? 0 : it->second.bytes.size();
    if (used_ - old_size + size > capacity_) {
      return ResourceExhausted("tier " +
                               std::string(sim::TierKindName(kind())) +
                               " full: " + std::to_string(used_) + "/" +
                               std::to_string(capacity_) + " used, need " +
                               std::to_string(size));
    }
    used_ = used_ - old_size + size;
    blobs_[id] = Blob{std::move(data), stamp};
  }
  sim::SimTime end = device_->Write(now, size, factor);
  if (done != nullptr) *done = end;
  Record(/*is_write=*/true, size, now, end);
  return Status::Ok();
}

StatusOr<BlobStamp> TierStore::PutPartial(
    const BlobId& id, std::uint64_t offset,
    const std::vector<std::uint8_t>& data, sim::SimTime now,
    sim::SimTime* done) {
  double factor = 1.0;
  MM_RETURN_IF_ERROR(InjectFault(/*is_write=*/true, now, done, &factor));
  BlobStamp stamp;
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) {
      return NotFound("blob " + id.ToString() + " not in tier");
    }
    std::vector<std::uint8_t>& bytes = it->second.bytes;
    // Overflow-safe bounds check: `offset + data.size()` could wrap.
    if (offset > bytes.size() || data.size() > bytes.size() - offset) {
      return OutOfRange("partial write past end of blob " + id.ToString());
    }
    std::memcpy(bytes.data() + offset, data.data(), data.size());
    // The commit point: the new bytes and their stamp publish together.
    ++it->second.stamp.version;
    it->second.stamp.crc = Crc32(bytes);
    stamp = it->second.stamp;
  }
  sim::SimTime end = device_->Write(now, data.size(), factor);
  if (done != nullptr) *done = end;
  Record(/*is_write=*/true, data.size(), now, end);
  return stamp;
}

StatusOr<std::vector<std::uint8_t>> TierStore::Get(const BlobId& id,
                                                   sim::SimTime now,
                                                   sim::SimTime* done) const {
  double factor = 1.0;
  MM_RETURN_IF_ERROR(InjectFault(/*is_write=*/false, now, done, &factor));
  std::vector<std::uint8_t> copy;
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) {
      return NotFound("blob " + id.ToString() + " not in tier");
    }
    copy = it->second.bytes;
  }
  sim::SimTime end = device_->Read(now, copy.size(), factor);
  if (done != nullptr) *done = end;
  Record(/*is_write=*/false, copy.size(), now, end);
  return copy;
}

StatusOr<BlobStamp> TierStore::GetInto(const BlobId& id,
                                       std::vector<std::uint8_t>* out,
                                       sim::SimTime now,
                                       sim::SimTime* done) const {
  double factor = 1.0;
  MM_RETURN_IF_ERROR(InjectFault(/*is_write=*/false, now, done, &factor));
  BlobStamp stamp;
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) {
      return NotFound("blob " + id.ToString() + " not in tier");
    }
    out->assign(it->second.bytes.begin(), it->second.bytes.end());
    stamp = it->second.stamp;
  }
  sim::SimTime end = device_->Read(now, out->size(), factor);
  if (done != nullptr) *done = end;
  Record(/*is_write=*/false, out->size(), now, end);
  return stamp;
}

StatusOr<std::vector<std::uint8_t>> TierStore::GetPartial(
    const BlobId& id, std::uint64_t offset, std::uint64_t size,
    sim::SimTime now, sim::SimTime* done) const {
  double factor = 1.0;
  MM_RETURN_IF_ERROR(InjectFault(/*is_write=*/false, now, done, &factor));
  std::vector<std::uint8_t> copy;
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) {
      return NotFound("blob " + id.ToString() + " not in tier");
    }
    const std::vector<std::uint8_t>& bytes = it->second.bytes;
    // Overflow-safe bounds check: `offset + size` could wrap.
    if (offset > bytes.size() || size > bytes.size() - offset) {
      return OutOfRange("partial read past end of blob " + id.ToString());
    }
    copy.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                bytes.begin() + static_cast<std::ptrdiff_t>(offset + size));
  }
  sim::SimTime end = device_->Read(now, size, factor);
  if (done != nullptr) *done = end;
  Record(/*is_write=*/false, size, now, end);
  return copy;
}

Status TierStore::Erase(const BlobId& id) {
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob " + id.ToString() + " not in tier");
  }
  used_ -= it->second.bytes.size();
  blobs_.erase(it);
  return Status::Ok();
}

bool TierStore::Contains(const BlobId& id) const {
  MutexLock lock(mu_);
  return blobs_.count(id) > 0;
}

std::uint64_t TierStore::BlobSize(const BlobId& id) const {
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  return it == blobs_.end() ? 0 : it->second.bytes.size();
}

std::vector<BlobId> TierStore::ListBlobs() const {
  MutexLock lock(mu_);
  std::vector<BlobId> ids;
  ids.reserve(blobs_.size());
  for (const auto& [id, _] : blobs_) ids.push_back(id);
  return ids;
}

std::vector<BlobId> TierStore::FailAndDrain() {
  failed_.store(true, std::memory_order_release);
  MutexLock lock(mu_);
  std::vector<BlobId> ids;
  ids.reserve(blobs_.size());
  for (const auto& [id, _] : blobs_) ids.push_back(id);
  blobs_.clear();
  used_ = 0;
  return ids;
}

Status TierStore::CorruptBlob(const BlobId& id, std::uint64_t offset) {
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob " + id.ToString() + " not in tier");
  }
  if (offset >= it->second.bytes.size()) {
    return OutOfRange("corruption offset past end of blob " + id.ToString());
  }
  it->second.bytes[offset] ^= 0xFF;
  return Status::Ok();
}

}  // namespace mm::storage
