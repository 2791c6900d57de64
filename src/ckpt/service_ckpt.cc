// Service checkpoint/restore surface (DESIGN.md §12). Lives with the ckpt
// subsystem but defines core::Service members, so it compiles into mm_core
// (see src/core/CMakeLists.txt).
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mm/ckpt/manifest.h"
#include "mm/core/service.h"
#include "mm/util/logging.h"

namespace mm::core {

namespace {

void Merge(sim::SimTime end, sim::SimTime* done) {
  if (done != nullptr) *done = std::max(*done, end);
}

}  // namespace

StatusOr<ckpt::CheckpointStats> Service::Checkpoint(const std::string& tag,
                                                    std::size_t from_node,
                                                    sim::SimTime now,
                                                    sim::SimTime* done) {
  if (!ckpt_->enabled()) {
    return FailedPrecondition(
        "checkpointing is disabled: set ServiceOptions.ckpt.dir");
  }
  if (injector_->crashed()) {
    return Unavailable("node crashed (simulated)");
  }
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sim::SimTime t = now;

  ckpt::CheckpointStats stats;
  stats.tag = tag;

  // Every task submitted before this call has run: Submit returns only
  // once its task has, and the collective's serial section keeps other
  // ranks from submitting more until the manifest is published.
  //
  // 1. Incremental flush: only pages still dirty since the previous epoch,
  //    group-committed per owner node by FlushVector, so a crash mid-way
  //    never leaves a torn page on the backend.
  std::vector<VectorMeta*> nonvolatile;
  {
    MutexLock lock(vectors_mu_);
    for (auto& [key, meta] : vectors_) {
      if (meta->stager != nullptr && !meta->destroyed.load()) {
        nonvolatile.push_back(meta.get());
      }
    }
  }
  const sim::SimTime flush_start = t;
  for (VectorMeta* meta : nonvolatile) {
    FlushCounts written;
    // An unflushed dirty page means the epoch cannot be published; the
    // journals stay in place for recovery.
    MM_RETURN_IF_ERROR(
        FlushVector(*meta, from_node, flush_start, &t, &written));
    stats.pages_written += written.pages;
    stats.bytes_written += written.bytes;
  }
  // The manifest promises the backend bytes and truncating spends the
  // journals that heal them, so both wait for every in-place write-back.
  for (VectorMeta* meta : nonvolatile) {
    t = std::max(t, meta->writeback_horizon.load(std::memory_order_relaxed));
  }

  // 2. Build the manifest from directory state. Versions/CRCs are the
  //    commit-time values — independent of when the flush above happened.
  ckpt::Manifest manifest;
  manifest.epoch = ckpt_->NextEpoch();
  manifest.tag = tag;
  stats.epoch = manifest.epoch;
  for (VectorMeta* meta : nonvolatile) {
    ckpt::ManifestVector mv;
    mv.key = meta->key;
    mv.elem_size = meta->elem_size;
    mv.size_bytes = meta->size_bytes.load(std::memory_order_relaxed);
    mv.page_bytes = meta->page_bytes;
    auto blobs = metadata().BlobsOfVector(meta->vector_id);
    std::sort(blobs.begin(), blobs.end(),
              [](const storage::BlobId& a, const storage::BlobId& b) {
                return a.page_idx < b.page_idx;
              });
    for (const auto& id : blobs) {
      auto loc = metadata().Lookup(id, from_node, t, nullptr);
      if (!loc.ok()) continue;
      ckpt::ManifestPage mp;
      mp.page_idx = id.page_idx;
      mp.version = loc->version;
      mp.crc = loc->crc;
      mp.tier = static_cast<int>(loc->tier);
      mp.node = loc->node;
      mv.pages.push_back(mp);
      ++stats.pages_total;
    }
    manifest.vectors.push_back(std::move(mv));
  }
  stats.incremental_ratio =
      static_cast<double>(stats.pages_written) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.pages_total));

  // 3. Atomic publication: write the temp file, then rename. A crash
  //    between the two (kMidManifestRename) leaves the previous manifest —
  //    and the journals, still un-truncated — as the recovery source.
  stats.manifest_path = ckpt_->ManifestPathFor(tag);
  MM_RETURN_IF_ERROR(ckpt::WriteManifestTemp(manifest, stats.manifest_path));
  t = std::max(t, cluster_->pfs().Write(
                      t, ckpt::SerializeManifest(manifest).size()));
  if (injector_->AtCrashPoint(sim::CrashPoint::kMidManifestRename)) {
    DumpFlightRecord(from_node,
                     sim::CrashPointName(sim::CrashPoint::kMidManifestRename),
                     t);
    return Unavailable(
        "simulated crash between manifest temp write and rename");
  }
  MM_RETURN_IF_ERROR(ckpt::PublishManifest(stats.manifest_path));

  // 4. The published manifest covers every journaled flush: spend the
  //    journals.
  MM_RETURN_IF_ERROR(ckpt_->TruncateJournals());

  stats.duration_s = t - now;
  Merge(t, done);
  sink.trace->Complete("checkpoint", "ckpt", sink.node, 0, now, t);
  MM_INFO("ckpt") << "epoch " << stats.epoch << " ('" << tag << "') published: "
                  << stats.pages_written << "/" << stats.pages_total
                  << " pages, " << stats.bytes_written << " bytes";
  return stats;
}

Status Service::Restore(const std::string& tag, std::size_t from_node,
                        sim::SimTime now, sim::SimTime* done) {
  if (!ckpt_->enabled()) {
    return FailedPrecondition(
        "checkpointing is disabled: set ServiceOptions.ckpt.dir");
  }
  if (injector_->crashed()) {
    return Unavailable("node crashed (simulated)");
  }
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sim::SimTime t = now;
  MM_ASSIGN_OR_RETURN(ckpt::Manifest manifest,
                      ckpt::ReadManifest(ckpt_->ManifestPathFor(tag)));
  t = std::max(t, cluster_->pfs().Read(
                      t, ckpt::SerializeManifest(manifest).size()));
  for (const auto& mv : manifest.vectors) {
    VectorOptions vopts;
    vopts.page_size = mv.page_bytes;
    vopts.nonvolatile = true;
    MM_ASSIGN_OR_RETURN(VectorMeta* meta,
                        RegisterVector(mv.key, mv.elem_size, vopts));
    // The manifest's logical size is authoritative: the backend object may
    // be larger from pre-crash appends past the published epoch.
    meta->size_bytes.store(mv.size_bytes, std::memory_order_relaxed);
    // Restore rebuilds from durable state only: drop directory entries and
    // scache copies that survive from before the restore (rerunnable — a
    // second pass finds nothing or repeats the same idempotent drops).
    for (const auto& id : metadata().BlobsOfVector(meta->vector_id)) {
      auto cur = metadata().Lookup(id, from_node, t, nullptr);
      // Best-effort purges: both are idempotent, and the directory entry is
      // rewritten from the manifest below either way.
      if (cur.ok()) (void)runtime(cur->node).buffer().Erase(id);
      (void)metadata().Remove(id, from_node, t, nullptr);  // absent is fine
    }
    for (const auto& mp : mv.pages) {
      if (injector_->AtCrashPoint(sim::CrashPoint::kMidRestore)) {
        // Directory left partially rebuilt; a rerun starts over from the
        // same manifest and journals (nothing here mutates the backend).
        DumpFlightRecord(from_node,
                         sim::CrashPointName(sim::CrashPoint::kMidRestore), t);
        return Unavailable("simulated crash mid restore");
      }
      storage::BlobId id{meta->vector_id, mp.page_idx};
      std::uint64_t version = mp.version;
      std::uint32_t crc = mp.crc;
      // Journal overlay: a durable redo record past the manifest version is
      // a promise kept — startup replay already applied its bytes to the
      // backend, so the directory must expect that newer state.
      auto durable = ckpt_->LatestDurable(id);
      if (durable.ok() && durable->version > version) {
        version = durable->version;
        crc = durable->page_crc;
      }
      storage::BlobLocation loc;
      // Placement affinity hint from the manifest, clamped in case the
      // restored job runs on fewer nodes.
      loc.node = std::min(static_cast<std::size_t>(mp.node), num_nodes() - 1);
      // Truthful residency: the bytes live on the backend until first
      // touch, which stages them in lazily (CRC-verified in ServePage).
      loc.tier = sim::TierKind::kPfs;
      loc.size = meta->page_bytes;
      loc.dirty = false;
      loc.version = version;
      loc.crc = crc;
      sim::SimTime upd = t;
      // Directory upsert on the home shard cannot fail.
      (void)metadata().Update(id, loc, from_node, t, &upd);
      t = std::max(t, upd);
      // The backend now holds the committed bytes for this page; any
      // pre-restore loss record is obsolete.
      ClearDataLoss(id);
    }
  }
  // The overlay is folded into the directory: the journals are spent.
  MM_RETURN_IF_ERROR(ckpt_->TruncateJournals());
  Merge(t, done);
  sink.trace->Complete("restore", "ckpt", sink.node, 0, now, t);
  MM_INFO("ckpt") << "restored epoch " << manifest.epoch << " ('" << tag
                  << "'): " << manifest.vectors.size() << " vector(s)";
  return Status::Ok();
}

}  // namespace mm::core
