#include "mm/core/service.h"

#include <algorithm>

#include "mm/core/pcache.h"
#include "mm/sim/cost_model.h"
#include "mm/telemetry/critpath.h"
#include "mm/telemetry/flightrec.h"
#include "mm/util/logging.h"

namespace mm::core {

/// Where a read of one page may be served from.
struct ReadSource {
  std::optional<storage::BlobLocation> loc;  // directory entry; unplaced: none
  std::size_t node = 0;                      // serving node
  /// `node` holds bytes the §6 rule accepts: the local copy of an unplaced
  /// page, the primary, or a registered replica. False for a default or
  /// fenced-remapped owner, which must stage the page in.
  bool has_copy = false;
};

namespace {
constexpr std::uint64_t kControlBytes = 64;  // read request envelope

void Merge(sim::SimTime end, sim::SimTime* done) {
  if (done != nullptr) *done = std::max(*done, end);
}

// ---------------------------------------------------------------------------
// The page-read pipeline (DESIGN.md §6). Every read path is built from the
// same three stages: the caller-thread fault (Service::ReadPage), the
// prefetch (Service::ReadPagesAsync) and the owner's read
// (NodeRuntime::GetPages).
// ---------------------------------------------------------------------------

/// Stage 1, the §6 replica-validity rule: this node's own copy when the
/// directory maps the page here or registers this node as a replica, else
/// under replication the primary or a replica spread by digest, else the
/// primary; unplaced and fenced owners map to DefaultOwner/Unfenced.
/// Charges the directory lookup to *done (nullptr: uncharged).
ReadSource ResolveSource(Service& svc, VectorMeta& meta,
                         const storage::BlobId& id, std::size_t from_node,
                         sim::SimTime now, sim::SimTime* done) {
  const bool local_bytes =
      svc.runtime(from_node).buffer().FindBlob(id).has_value();
  ReadSource src;
  auto entry = svc.metadata().Lookup(id, from_node, now, done);
  if (!entry.ok()) {
    // Unplaced: the deterministic default owner, which every rank computes
    // identically, so concurrent first-touches of one page can never
    // materialize it on two nodes (split-brain).
    src.node = local_bytes ? from_node : svc.DefaultOwner(meta, id);
    src.has_copy = local_bytes;
    return src;
  }
  src.loc = *entry;
  src.node = entry->node;
  // Local bytes count only while the directory maps the blob here or
  // registers this node as a replica: an invalidated replica's bytes linger
  // until the Erase call runs, and serving them would label stale data with
  // the current version — or, routed at a node the erase beat, fabricate a
  // zero page.
  const bool replicated =
      AllowsReplication(meta.mode.load(std::memory_order_relaxed));
  if (!(local_bytes && src.node == from_node) && (local_bytes || replicated)) {
    auto replicas = svc.metadata().Replicas(id, from_node, now, nullptr);
    if (local_bytes && std::find(replicas.begin(), replicas.end(),
                                 from_node) != replicas.end()) {
      src.node = from_node;
    } else if (replicated && !replicas.empty()) {
      std::vector<std::size_t> candidates{src.node};
      candidates.insert(candidates.end(), replicas.begin(), replicas.end());
      std::erase_if(candidates,
                    [&svc](std::size_t n) { return svc.NodeFenced(n); });
      if (!candidates.empty()) {
        src.node = candidates[(id.Digest() ^ from_node) % candidates.size()];
      }
    }
  }
  // A fenced owner (directory entry not yet reconciled) is remapped to the
  // next live node, which stages the page in from the backend on demand.
  src.has_copy =
      !svc.NodeFenced(src.node) && (src.node != from_node || local_bytes);
  src.node = svc.Unfenced(src.node);
  return src;
}

/// Stage 2: copies `id` out of `node`'s scache into *buf and checks the
/// copy against the stamp it was copied under. A commit publishes a page's
/// bytes and stamp together, so a mismatch is media corruption, never a
/// racing commit. The copy is charged to *done. Returns the stamp, kDataLoss
/// on a mismatch, or the copy's error.
StatusOr<storage::BlobStamp> VerifiedCopy(Service& svc, std::size_t node,
                                          const storage::BlobId& id,
                                          std::vector<std::uint8_t>* buf,
                                          sim::SimTime now,
                                          sim::SimTime* done) {
  MM_ASSIGN_OR_RETURN(storage::BlobStamp stamp,
                      svc.runtime(node).buffer().GetInto(id, buf, now, done));
  if (svc.options().verify_checksums && stamp.crc != 0 &&
      Crc32(*buf) != stamp.crc) {
    return DataLoss("copy of page " + id.ToString() + " on node " +
                    std::to_string(node) + " failed its CRC check");
  }
  return stamp;
}

/// VerifiedCopy into a pooled `bytes`-sized buffer of `from_node`, under
/// the one failure policy of the healing readers (the caller-thread fault,
/// the owner's GetPages and the stage-out snapshot). A CRC mismatch hands
/// the copy on `node` to the loss rule (Service::DropCopy); a clean copy
/// that errored is dropped. Returns the bytes and sets *stamp, or returns
/// kNotFound when the page must be fetched elsewhere, or a terminal error
/// (typed data loss, an I/O error on dirty bytes). The drop's charges land
/// on *done (non-null).
StatusOr<std::vector<std::uint8_t>> CopyOrHeal(
    Service& svc, std::size_t node, const storage::BlobId& id,
    std::size_t from_node, std::uint64_t bytes, sim::SimTime now,
    sim::SimTime* done, storage::BlobStamp* stamp) {
  PagePool& pool = svc.runtime(from_node).pool();
  std::vector<std::uint8_t> buf = pool.Acquire(bytes);
  PoolReturn buf_guard(pool, buf);
  auto copied = VerifiedCopy(svc, node, id, &buf, now, done);
  if (copied.ok()) {
    *stamp = *copied;
    return buf;  // implicit move detaches from buf_guard
  }
  const Status& st = copied.status();
  if (st.code() == StatusCode::kDataLoss) {
    // Silent media corruption: the copy is lost, and the page is re-fetched
    // next unless its unstaged modifications went with it.
    if (svc.DropCopy(node, id, from_node, *done, done) ==
        Service::DropOutcome::kLost) {
      return DataLoss("page " + id.ToString() +
                      " failed CRC check with unstaged modifications");
    }
  } else if (st.code() == StatusCode::kUnavailable) {
    // The tier died under this read. The BufferManager already drained it
    // and OnTierFailure reconciled the metadata — re-check whether this
    // page's modifications went down with the tier.
    if (svc.IsDataLost(id)) {
      return DataLoss("page " + id.ToString() +
                      " lost unstaged modifications");
    }
  } else if (st.code() == StatusCode::kIoError) {
    // Retries exhausted on a live tier. A dirty page cannot be recreated
    // from the backend, so surface the error; a clean copy is dropped and
    // re-fetched.
    auto cur = svc.metadata().Lookup(id, from_node, *done, nullptr);
    if (cur.ok() && cur->dirty) return st;
    // A failed erase is corrected by the exact-accounting drop in PutScored.
    (void)svc.runtime(node).buffer().Erase(id);
  }
  // Whatever else went wrong, this copy is unusable: fetch elsewhere.
  return st.code() == StatusCode::kNotFound ? st : NotFound(st.ToString());
}

/// A page with no directory entry and no copy: only a stage-in (or a
/// zero-fill) can materialize it.
bool Unplaced(const ReadSource& src) { return !src.loc && !src.has_copy; }

/// Splits pages [first, first + srcs.size()) into fetch runs and calls
/// fn(lo, hi) for each, in order: consecutive unplaced pages of one
/// stage-in block (`block` pages) owned by one node. Anything else is a run
/// of one.
template <typename Fn>
void ForEachRun(const std::vector<ReadSource>& srcs, std::uint64_t first,
                std::uint64_t block, Fn fn) {
  const std::uint64_t n = srcs.size();
  for (std::uint64_t lo = 0; lo < n;) {
    std::uint64_t hi = lo + 1;
    while (hi < n && Unplaced(srcs[lo]) && Unplaced(srcs[hi]) &&
           srcs[hi].node == srcs[lo].node &&
           (first + hi) / block == (first + lo) / block) {
      ++hi;
    }
    fn(lo, hi);
    lo = hi;
  }
}

/// Bytes of `meta` the backend holds within the vector's logical extent (0
/// for a volatile vector or a backend not created yet).
std::uint64_t BackendExtent(VectorMeta& meta) {
  if (meta.stager == nullptr) return 0;
  bool exists = false;
  {
    MutexLock lock(meta.backend_mu);
    exists = meta.backend_ready || meta.stager->Exists(meta.uri);
  }
  if (!exists) return 0;
  auto size_or = meta.stager->Size(meta.uri);
  if (!size_or.ok()) return 0;
  return std::min(meta.size_bytes.load(std::memory_order_relaxed), *size_or);
}

/// Stage 3: routes the run of pages [first, first + n) to `owner`, stage
/// 1's verdict for its first page, charging the request envelope when
/// remote. Staged-in pages are cached at `score`; a `placement_only` run
/// returns no bytes. Returns one outcome per page.
std::vector<TaskOutcome> SubmitGetPages(
    Service& svc, VectorMeta& meta, std::uint64_t first, std::uint64_t n,
    std::size_t owner, std::size_t from_node, sim::SimTime now,
    telemetry::TraceContext tctx, float score = 1.0f,
    bool placement_only = false) {
  const sim::SimTime issued =
      owner == from_node
          ? now
          : svc.cluster()
                .network()
                .Transfer(now, from_node, owner, kControlBytes)
                .delivered;
  return svc.runtime(owner).GetPages(meta, first, n, from_node, issued, tctx,
                                     score, placement_only);
}

/// Whether the calling thread is running a runtime step.
thread_local bool t_in_step = false;

/// The lost-page gate of a commit: a page that lost unstaged modifications
/// takes only a full-page overwrite, which makes it whole again; a partial
/// write to it would land over zeros or stale bytes, so it is typed data
/// loss.
Status AdmitCommit(Service& svc, const VectorMeta& meta,
                   const storage::BlobId& id, std::uint64_t offset,
                   std::uint64_t size) {
  if (!svc.IsDataLost(id)) return Status::Ok();
  if (offset == 0 && size >= meta.page_bytes) {
    svc.ClearDataLoss(id);
    return Status::Ok();
  }
  return DataLoss("partial write to page " + id.ToString() +
                  " that lost unstaged modifications");
}
}  // namespace

// ---------------------------------------------------------------------------
// NodeRuntime
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(Service* service, std::size_t node_id,
                         const ServiceOptions& options,
                         const std::vector<storage::TierGrant>& grants)
    : service_(service),
      node_id_(node_id),
      options_(options),
      tel_(service->telemetry_sink(node_id)),
      task_executed_(tel_.metrics->GetCounter("mm.task.executed_count")),
      stager_read_bytes_(tel_.metrics->GetCounter("mm.stager.read_bytes")),
      stager_read_count_(tel_.metrics->GetCounter("mm.stager.read_count")),
      stager_write_bytes_(tel_.metrics->GetCounter("mm.stager.write_bytes")),
      stager_retries_(tel_.metrics->GetCounter("mm.stager.retries_count")),
      get_page_ns_(tel_.metrics->GetHistogram("mm.task.get_page_ns",
                                              telemetry::LatencyBoundsNs())),
      write_partial_ns_(tel_.metrics->GetHistogram(
          "mm.task.write_partial_ns", telemetry::LatencyBoundsNs())),
      score_ns_(tel_.metrics->GetHistogram("mm.task.score_ns",
                                           telemetry::LatencyBoundsNs())),
      stage_out_ns_(tel_.metrics->GetHistogram("mm.task.stage_out_ns",
                                               telemetry::LatencyBoundsNs())),
      erase_ns_(tel_.metrics->GetHistogram("mm.task.erase_ns",
                                           telemetry::LatencyBoundsNs())),
      ckpt_journal_bytes_(tel_.metrics->GetCounter("mm.ckpt.journal_bytes")),
      bm_(&service->cluster().node(node_id), grants,
          &service->fault_injector(), options.retry, tel_) {
  bm_.SetTierFailureHandler(
      [this](sim::TierKind kind, const std::vector<storage::BlobId>& lost,
             sim::SimTime now) {
        service_->OnTierFailure(node_id_, kind, lost, now);
      });
}

NodeRuntime::~NodeRuntime() { Shutdown(); }

void NodeRuntime::Shutdown() {
  // Taking the mutex waits for the step running now; every later call then
  // sees the flag and is rejected.
  MutexLock lock(exec_mu_);
  shut_down_ = true;
}

/// Declared first in an entry point, before its `MutexLock lock(exec_mu_)`,
/// so the lock is released before this records the step. It marks the
/// thread as running a step, installs `tctx` as the ambient flow for the
/// nested stager spans, and starts the step `task_dispatch_s` after
/// `issued`. On exit it counts the step, observes `done - issued` in
/// `latency`, records the `name` span over [issued, done] (a flow hop `hop`
/// when `tctx` is valid) and recycles `payload`. A rejected step records
/// nothing.
class NodeRuntime::TaskScope {
 public:
  TaskScope(NodeRuntime& rt, std::string_view name,
            telemetry::Histogram* latency, sim::SimTime issued,
            telemetry::TraceContext tctx = {}, char hop = 't',
            std::vector<std::uint8_t>* payload = nullptr)
      : rt_(rt),
        name_(name),
        latency_(latency),
        issued_(issued),
        start_(issued + sim::CostModel::Default().task_dispatch_s),
        done_(start_),
        tctx_(tctx),
        hop_(hop),
        payload_(payload),
        flow_(tctx) {
    // A step that started another on this thread could wait on a mutex the
    // thread holds, so no step makes a runtime call.
    MM_CHECK_MSG(!t_in_step, "runtime step started inside a step");
    t_in_step = true;
  }

  ~TaskScope() {
    t_in_step = false;
    if (!rejected_) {
      rt_.task_executed_->Inc();
      latency_->Observe((done_ - issued_) * 1e9);
      if (tctx_.valid()) {
        rt_.tel_.trace->CompleteFlow(name_, "task", rt_.tel_.node, /*tid=*/0,
                                     issued_, done_, tctx_, hop_);
      } else {
        rt_.tel_.trace->Complete(name_, "task", rt_.tel_.node, /*tid=*/0,
                                 issued_, done_);
      }
      if (payload_ != nullptr && payload_->capacity() > 0) {
        rt_.pool_.Release(std::move(*payload_));
      }
    }
  }

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  /// When the step starts: `task_dispatch_s` after its issue.
  sim::SimTime start() const { return start_; }

  /// Whether the step is rejected: `shut_down` is the runtime's flag, read
  /// under exec_mu_.
  bool Rejected(bool shut_down) { return rejected_ = shut_down; }

  /// The outcome of a rejected step.
  TaskOutcome Rejection() const {
    TaskOutcome out;
    out.status = FailedPrecondition("call after runtime shutdown");
    out.done = issued_;
    return out;
  }

  /// Ends the step at `done`.
  void Finish(sim::SimTime done) { done_ = done; }
  TaskOutcome Finish(TaskOutcome out) {
    done_ = out.done;
    return out;
  }

 private:
  NodeRuntime& rt_;
  std::string_view name_;
  telemetry::Histogram* latency_;
  sim::SimTime issued_;
  sim::SimTime start_;
  sim::SimTime done_;
  telemetry::TraceContext tctx_;
  char hop_;
  std::vector<std::uint8_t>* payload_;
  bool rejected_ = false;
  telemetry::TraceContextScope flow_;
};

Status NodeRuntime::BackendRead(
    VectorMeta& meta, std::uint64_t offset, std::uint64_t size,
    std::span<std::vector<std::uint8_t>* const> pages, sim::SimTime now,
    sim::SimTime* done) {
  sim::Device& pfs = service_->cluster().pfs();
  // The read starts once the vector's in-place write-backs have ended, so
  // it never overtakes bytes a flush left queued on the PFS.
  now = std::max(now, meta.writeback_horizon.load(std::memory_order_relaxed));
  sim::SimTime end = now;
  int attempts = 0;
  Status st = RunWithRetry(
      options_.retry, now, &end,
      [&](double start, double* attempt_done) -> Status {
        auto d = service_->fault_injector().OnBackendOp();
        if (d.kind == sim::FaultInjector::Decision::Kind::kPermanent) {
          return Unavailable("PFS backend unavailable");
        }
        if (d.kind == sim::FaultInjector::Decision::Kind::kTransient) {
          sim::SimTime attempt_end =
              pfs.Stall(start, pfs.spec().read_latency_s * d.spike_factor);
          *attempt_done = std::max(*attempt_done, attempt_end);
          return IoError("injected transient fault on backend read of '" +
                         meta.key + "'");
        }
        // Each page lands in its own pooled buffer; the run is one device
        // request.
        for (std::size_t i = 0; i < pages.size(); ++i) {
          const std::uint64_t off = i * meta.page_bytes;
          pages[i]->clear();
          MM_RETURN_IF_ERROR(meta.stager->Read(
              meta.uri, offset + off, std::min(meta.page_bytes, size - off),
              pages[i]));
        }
        *attempt_done =
            std::max(*attempt_done, pfs.Read(start, size, d.spike_factor));
        return Status::Ok();
      },
      &attempts);
  Merge(end, done);
  if (!st.ok()) {
    // One warning per retry burst — RunWithRetry already exhausted the
    // per-attempt detail; repeating the URI for every attempt only de-tunes
    // the log.
    MM_WARN("stager") << "backend read of '" << meta.key << "' failed after "
                      << attempts << " attempt(s): " << st.ToString();
    return st;
  }
  if (attempts > 1) {
    stager_retries_->Inc(static_cast<std::uint64_t>(attempts - 1));
  }
  stager_read_bytes_->Inc(size);
  stager_read_count_->Inc();
  tel_.trace->CompleteFlow("stager_read", "stager", tel_.node, 0, now, end,
                           telemetry::CurrentTraceContext(), 't');
  return st;
}

Status NodeRuntime::BackendWrite(VectorMeta& meta,
                                 std::span<const ckpt::JournalRecord> run,
                                 sim::SimTime now, sim::SimTime* done,
                                 std::vector<WritebackCharge>* writeback) {
  sim::Device& pfs = service_->cluster().pfs();
  std::uint64_t run_bytes = 0;
  for (const auto& rec : run) run_bytes += rec.payload.size();
  sim::SimTime end = now;
  int attempts = 0;
  Status st = RunWithRetry(
      options_.retry, now, &end,
      [&](double start, double* attempt_done) -> Status {
        auto d = service_->fault_injector().OnBackendOp();
        if (d.kind == sim::FaultInjector::Decision::Kind::kPermanent) {
          return Unavailable("PFS backend unavailable");
        }
        if (d.kind == sim::FaultInjector::Decision::Kind::kTransient) {
          sim::SimTime attempt_end =
              pfs.Stall(start, pfs.spec().write_latency_s * d.spike_factor);
          *attempt_done = std::max(*attempt_done, attempt_end);
          return IoError("injected transient fault on backend write of '" +
                         meta.key + "'");
        }
        // Each page leaves from its own pooled buffer; the run is one
        // device request.
        for (const auto& rec : run) {
          MM_RETURN_IF_ERROR(meta.stager->Write(
              meta.uri, rec.offset, rec.payload.data(), rec.payload.size()));
        }
        if (writeback != nullptr) {
          writeback->push_back({start, run_bytes, d.spike_factor});
        } else {
          *attempt_done = std::max(
              *attempt_done, pfs.Write(start, run_bytes, d.spike_factor));
        }
        return Status::Ok();
      },
      &attempts);
  if (!st.ok()) {
    Merge(end, done);
    // Same once-per-burst policy as BackendRead.
    MM_WARN("stager") << "backend write of '" << meta.key << "' failed after "
                      << attempts << " attempt(s): " << st.ToString();
    return st;
  }
  if (attempts > 1) {
    stager_retries_->Inc(static_cast<std::uint64_t>(attempts - 1));
  }
  stager_write_bytes_->Inc(run_bytes);
  if (writeback == nullptr) {
    Merge(end, done);
    tel_.trace->CompleteFlow("stager_write", "stager", tel_.node, 0, now, end,
                             telemetry::CurrentTraceContext(), 't');
  }
  return st;
}

Status NodeRuntime::JournaledBackendWrite(
    VectorMeta& meta, std::span<const ckpt::JournalRecord> batch,
    sim::SimTime now, sim::SimTime* done,
    std::vector<WritebackCharge>* writeback) {
  sim::FaultInjector& inj = service_->fault_injector();
  if (inj.crashed()) {
    // A dead process writes nothing: later flushes of the same run must not
    // touch disk after the armed crash fired.
    return Unavailable("node crashed (simulated)");
  }
  ckpt::Journal* journal = service_->journal(node_id_);
  // In-place writes start once every redo record is durable.
  sim::SimTime durable = now;
  if (journal != nullptr) {
    if (inj.AtCrashPoint(sim::CrashPoint::kMidJournalAppend)) {
      // Death halfway through the group commit: a torn batch on disk, no
      // in-place write. Recovery discards the whole batch and keeps the
      // backend's previous pages intact.
      // mm-verify: allow(MML005 crash sim drops the torn append's status)
      (void)journal->AppendTorn(batch);
      service_->DumpFlightRecord(
          node_id_, sim::CrashPointName(sim::CrashPoint::kMidJournalAppend),
          now);
      return Unavailable("simulated crash mid journal append");
    }
    MM_RETURN_IF_ERROR(journal->AppendBatch(batch));
    // The batch is real backend I/O: one PFS write for all its records.
    std::uint64_t journal_bytes = 0;
    for (const auto& rec : batch) {
      journal_bytes += rec.payload.size() + ckpt::Journal::kRecordOverheadBytes;
    }
    durable = service_->cluster().pfs().Write(now, journal_bytes);
    Merge(durable, done);
    ckpt_journal_bytes_->Inc(journal_bytes);
    if (inj.AtCrashPoint(sim::CrashPoint::kAfterJournalAppend)) {
      // Records durable, in-place writes never start: recovery replays the
      // batch to bring the backend to the journaled versions.
      service_->DumpFlightRecord(
          node_id_, sim::CrashPointName(sim::CrashPoint::kAfterJournalAppend),
          now);
      return Unavailable("simulated crash between journal append and "
                         "in-place write");
    }
  }
  // One in-place write per contiguous run of pages; the first failed run
  // fails the batch, and its pages stay dirty.
  for (std::size_t lo = 0; lo < batch.size();) {
    std::size_t hi = lo + 1;
    while (hi < batch.size() &&
           batch[hi].offset ==
               batch[hi - 1].offset + batch[hi - 1].payload.size()) {
      ++hi;
    }
    std::span<const ckpt::JournalRecord> run = batch.subspan(lo, hi - lo);
    lo = hi;
    if (journal != nullptr &&
        inj.AtCrashPoint(sim::CrashPoint::kMidInPlaceWrite)) {
      // Death mid in-place write leaves the first half of the run's bytes
      // on the backend — a torn run; the durable batch above is what heals
      // it during recovery.
      std::uint64_t budget = 0;
      for (const auto& rec : run) budget += rec.payload.size();
      budget /= 2;
      for (const auto& rec : run) {
        std::uint64_t len = std::min<std::uint64_t>(budget, rec.payload.size());
        if (len == 0) break;
        // mm-verify: allow(MML005 crash simulation leaves a torn run)
        (void)meta.stager->Write(meta.uri, rec.offset, rec.payload.data(), len);
        budget -= len;
      }
      service_->DumpFlightRecord(
          node_id_, sim::CrashPointName(sim::CrashPoint::kMidInPlaceWrite),
          durable);
      return Unavailable("simulated crash mid in-place write");
    }
    MM_RETURN_IF_ERROR(BackendWrite(meta, run, durable, done,
                                    journal != nullptr ? writeback : nullptr));
  }
  return Status::Ok();
}

void NodeRuntime::StageInOrZero(VectorMeta& meta, std::uint64_t first,
                                std::span<TaskOutcome> outs,
                                sim::SimTime now) {
  // Pooled and explicitly zeroed: a recycled buffer must not leak a
  // previous page's bytes into a logically-fresh page. Ownership travels
  // out as the TaskOutcome payload; its reader recycles it after use.
  for (TaskOutcome& out : outs) {
    out.done = now;
    // mm-verify: allow(MML002 buffer leaves as the returned outcome payload)
    out.data = pool_.AcquireZeroed(meta.page_bytes);
  }
  const std::uint64_t first_off = first * meta.page_bytes;
  // Only stage in what the backend actually holds: the pages it holds are
  // a prefix of the run, read as one request straight into their pages.
  const std::uint64_t logical = meta.size_bytes.load(std::memory_order_relaxed);
  const std::uint64_t end = first_off < logical ? BackendExtent(meta) : 0;
  std::vector<std::vector<std::uint8_t>*> held;
  std::uint64_t bytes = 0;
  for (TaskOutcome& out : outs) {
    const std::uint64_t off = first_off + held.size() * meta.page_bytes;
    if (off >= end) break;
    held.push_back(&out.data);
    bytes += std::min(meta.page_bytes, end - off);
  }
  if (held.empty()) return;
  sim::SimTime done = now;
  const Status st = BackendRead(meta, first_off, bytes, held, now, &done);
  for (std::size_t i = 0; i < held.size(); ++i) {
    // The resize restores the zero tail past the backend's end.
    held[i]->resize(meta.page_bytes);
    outs[i].status = st;
    outs[i].done = done;
  }
}

void NodeRuntime::CacheStagedPage(const storage::BlobId& id,
                                  const storage::BlobStamp& stamp,
                                  std::size_t from_node, float score,
                                  bool placement_only, TaskOutcome* out) {
  // The cached copy comes from the pool so the steady-state read path
  // allocates nothing. A placement-only page has no reader for the bytes:
  // they move into the cache uncopied.
  sim::SimTime put_done = out->done;
  const std::uint64_t size = out->data.size();
  std::vector<std::uint8_t> cache_copy;
  if (placement_only) {
    cache_copy = std::move(out->data);
  } else {
    cache_copy = pool_.Acquire(size);
    std::copy(out->data.begin(), out->data.end(), cache_copy.begin());
  }
  auto tier = bm_.PutScored(id, std::move(cache_copy), score, stamp,
                            out->done, &put_done);
  if (!tier.ok()) return;
  storage::BlobLocation loc;
  loc.node = node_id_;
  loc.tier = bm_.tier(*tier).kind();
  loc.size = size;
  loc.score = score;
  loc.score_node = from_node;
  loc.dirty = false;
  loc.version = stamp.version;
  loc.crc = stamp.crc;
  // Directory upsert on the home shard cannot fail; timing is charged
  // through `done` on the read path instead.
  (void)service_->metadata().Update(id, loc, node_id_, out->done, nullptr);
  out->version = loc.version;
  out->crc = loc.crc;
  out->done = put_done;
}

std::vector<TaskOutcome> NodeRuntime::GetPages(
    VectorMeta& meta, std::uint64_t first, std::uint64_t n,
    std::size_t from_node, sim::SimTime issued, telemetry::TraceContext tctx,
    float score, bool placement_only) {
  TaskScope task(*this, "get_page", get_page_ns_, issued, tctx);
  MutexLock lock(exec_mu_);
  if (task.Rejected(shut_down_)) {
    return std::vector<TaskOutcome>(n, task.Rejection());
  }
  const sim::SimTime now = task.start();
  std::vector<TaskOutcome> outs(n);
  std::vector<ReadSource> srcs(n);
  // Stage 1 again for every page: a commit, fault or restore may have
  // placed one since the run formed.
  bool unplaced = true;
  for (std::uint64_t i = 0; i < n; ++i) {
    const storage::BlobId id{meta.vector_id, first + i};
    outs[i].done = now;
    if (service_->IsDataLost(id)) {
      outs[i].status =
          DataLoss("page " + id.ToString() + " lost unstaged modifications");
    } else {
      srcs[i] = ResolveSource(*service_, meta, id, node_id_, now, nullptr);
    }
    unplaced = unplaced && outs[i].status.ok() && Unplaced(srcs[i]);
  }
  if (unplaced) {
    // One backend read for the run; each page is then cached and published
    // under its RestageVersion (0 unless the page was dropped).
    StageInOrZero(meta, first, outs, now);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (outs[i].status.ok()) {
        const storage::BlobId id{meta.vector_id, first + i};
        CacheStagedPage(id,
                        {service_->RestageVersion(id), Crc32(outs[i].data)},
                        from_node, score, placement_only, &outs[i]);
      }
    }
  } else {
    // Page by page; a stage-ahead skips the pages found placed.
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!outs[i].status.ok() || (placement_only && !Unplaced(srcs[i]))) {
        continue;
      }
      outs[i] = ServePage(meta, first + i, srcs[i], now, from_node, score,
                          placement_only);
    }
  }
  sim::SimTime done = now;
  for (TaskOutcome& out : outs) {
    done = std::max(done, out.done);
    // A stage-ahead's staged bytes moved into the scache; whatever else it
    // read (a failed stage-in's buffer) has no reader.
    if (placement_only) pool_.Release(std::move(out.data));
  }
  task.Finish(done);
  return outs;
}

TaskOutcome NodeRuntime::ServePage(VectorMeta& meta, std::uint64_t page,
                                   const ReadSource& src, sim::SimTime now,
                                   std::size_t from_node, float score,
                                   bool placement_only) {
  const storage::BlobId id{meta.vector_id, page};
  TaskOutcome out;
  out.done = now;
  StatusOr<std::vector<std::uint8_t>> copy =
      NotFound("no valid copy on this node");
  storage::BlobStamp stamp;
  if (src.node == node_id_ && src.has_copy) {
    copy = CopyOrHeal(*service_, node_id_, id, node_id_, meta.page_bytes,
                      out.done, &out.done, &stamp);
  }
  // No usable local bytes. If the directory maps the blob to another node,
  // serve the read through from the recorded owner. Falling into the
  // zero-fill below would re-register a zero page under the preserved
  // version and re-home the directory here, making the real copy
  // unreachable.
  if (copy.status().code() == StatusCode::kNotFound && src.loc &&
      src.loc->node != node_id_) {
    const std::size_t owner = src.loc->node;
    copy = CopyOrHeal(*service_, owner, id, node_id_, meta.page_bytes,
                      out.done, &out.done, &stamp);
    if (copy.ok()) {
      out.done = service_->cluster()
                     .network()
                     .Transfer(out.done, owner, node_id_, copy->size())
                     .delivered;
    }
  }
  if (copy.ok()) {
    out.data = std::move(copy).value();
    out.version = stamp.version;
    out.crc = stamp.crc;
    return out;
  }
  if (copy.status().code() != StatusCode::kNotFound) {
    out.status = copy.status();
    return out;
  }
  // Fault through to the backend (or zero-fill a fresh page): a run of one.
  out = TaskOutcome{};
  StageInOrZero(meta, page, {&out, 1}, now);
  if (!out.status.ok()) return out;
  // Restored and written-through pages keep a directory entry with a kPfs
  // residency hint and the committed full-page CRC: verify the staged-in
  // bytes against it, so a torn or stale backend page surfaces as typed
  // data loss instead of silently serving wrong bytes (DESIGN.md §12). The
  // one CRC of the staged bytes is also the cached copy's stamp.
  const std::uint32_t crc = Crc32(out.data);
  if (options_.verify_checksums && meta.stager != nullptr && src.loc &&
      src.loc->tier == sim::TierKind::kPfs && !src.loc->dirty &&
      src.loc->crc != 0 && crc != src.loc->crc) {
    service_->RecordDataLoss(id, node_id_, out.done);
    pool_.Release(std::move(out.data));
    out.data.clear();
    out.status = DataLoss("page " + id.ToString() +
                          " staged in from the backend does not match its "
                          "recorded checksum");
    return out;
  }
  // Preserve an existing version if the page previously lived elsewhere
  // (e.g. written through to the backend) or was dropped.
  CacheStagedPage(
      id, {src.loc ? src.loc->version : service_->RestageVersion(id), crc},
      from_node, score, placement_only, &out);
  return out;
}

TaskOutcome NodeRuntime::WritePartial(VectorMeta& meta, std::uint64_t page,
                                      std::uint64_t offset,
                                      std::vector<std::uint8_t> bytes,
                                      std::size_t from_node,
                                      sim::SimTime issued,
                                      telemetry::TraceContext tctx) {
  // The span closes the flow ('f'): no origin span outlives an async
  // commit.
  TaskScope task(*this, "write_partial", write_partial_ns_, issued, tctx, 'f',
                 &bytes);
  MutexLock lock(exec_mu_);
  if (task.Rejected(shut_down_)) return task.Rejection();
  return task.Finish(CommitPartial(meta, {meta.vector_id, page}, offset, bytes,
                                   from_node, task.start()));
}

TaskOutcome NodeRuntime::CommitPartial(VectorMeta& meta,
                                       const storage::BlobId& id,
                                       std::uint64_t offset,
                                       const std::vector<std::uint8_t>& bytes,
                                       std::size_t from_node,
                                       sim::SimTime now) {
  // A commit caches its page at the default score.
  constexpr float kScore = 1.0f;
  TaskOutcome out;
  out.done = now;
  out.status = AdmitCommit(*service_, meta, id, offset, bytes.size());
  if (!out.status.ok()) return out;
  sim::SimTime dev_done = now;
  auto stamp = bm_.PutPartial(id, offset, bytes, now, &dev_done);
  if (stamp.status().code() == StatusCode::kNotFound ||
      stamp.status().code() == StatusCode::kUnavailable) {
    // Page not resident (or its tier just died): materialize it (stage-in
    // or zeros), apply the modification, and cache the result. The gate
    // runs again: a tier death during the failed PutPartial may have just
    // recorded the page as lost.
    out.status = AdmitCommit(*service_, meta, id, offset, bytes.size());
    if (!out.status.ok()) return out;
    TaskOutcome base;
    StageInOrZero(meta, id.page_idx, {&base, 1}, now);
    if (!base.status.ok()) return base;
    MM_CHECK(offset + bytes.size() <= base.data.size());
    std::copy(bytes.begin(), bytes.end(),
              base.data.begin() + static_cast<std::ptrdiff_t>(offset));
    dev_done = base.done;
    std::vector<std::uint8_t> page_data = std::move(base.data);
    // page_data came from the pool (StageInOrZero); hand it back on every
    // exit from this scope, including errors.
    PoolReturn page_guard(pool_, page_data);
    auto prev = service_->metadata().Lookup(id, node_id_, dev_done, nullptr);
    storage::BlobLocation loc;
    loc.node = node_id_;
    loc.size = meta.page_bytes;
    loc.score = kScore;
    loc.score_node = from_node;
    loc.version =
        (prev.ok() ? prev->version : service_->RestageVersion(id)) + 1;
    loc.crc = Crc32(page_data);
    std::vector<std::uint8_t> cache_copy = pool_.Acquire(page_data.size());
    std::copy(page_data.begin(), page_data.end(), cache_copy.begin());
    auto tier = bm_.PutScored(id, std::move(cache_copy), kScore,
                              {loc.version, loc.crc}, dev_done, &dev_done);
    if (tier.ok()) {
      loc.tier = bm_.tier(*tier).kind();
      loc.dirty = true;
    } else {
      if (meta.stager == nullptr) {
        // Volatile vector with a full scache: the write cannot be held.
        out.status = tier.status();
        return out;
      }
      // Nonvolatile vector, scache full (or dead) everywhere: write
      // straight through to the backend. Later faults stage the page back
      // in from there.
      Status eb = service_->EnsureBackend(meta);
      if (!eb.ok()) {
        out.status = eb;
        return out;
      }
      std::uint64_t page_off = id.page_idx * meta.page_bytes;
      std::uint64_t logical = meta.size_bytes.load(std::memory_order_relaxed);
      std::uint64_t want = std::min<std::uint64_t>(
          page_data.size(), logical > page_off ? logical - page_off : 0);
      page_data.resize(want);
      // Journal under the NEW version being committed: the write-through is
      // this page's only durable copy, so its redo record is what recovery
      // replays if the in-place write tears. A batch of one page; the
      // pooled bytes swap back for page_guard.
      ckpt::JournalRecord rec;
      rec.id = id;
      rec.version = loc.version;
      rec.page_crc = loc.crc;
      rec.offset = page_off;
      rec.key = meta.key;
      rec.payload.swap(page_data);
      Status wt = JournaledBackendWrite(meta, {&rec, 1}, dev_done, &dev_done);
      rec.payload.swap(page_data);
      if (!wt.ok()) {
        out.status = wt;
        return out;
      }
      loc.tier = sim::TierKind::kPfs;
      loc.dirty = false;  // already persistent
    }
    // Directory upsert cannot fail; the write outcome already carries the
    // authoritative status.
    (void)service_->metadata().Update(id, loc, node_id_, dev_done, nullptr);
    out.version = loc.version;
    out.done = dev_done;
    return out;
  }
  if (!stamp.ok()) {
    out.status = stamp.status();
    return out;
  }
  // The commit point was the PutPartial: mirror its stamp into the
  // directory entry and mark the page dirty.
  auto loc = service_->metadata().Lookup(id, node_id_, dev_done, nullptr);
  if (loc.ok()) {
    storage::BlobLocation updated = *loc;
    updated.dirty = true;
    updated.version = stamp->version;
    updated.crc = stamp->crc;
    // Directory upsert cannot fail; the commit's status is what callers see.
    (void)service_->metadata().Update(id, updated, node_id_, dev_done,
                                      nullptr);
  }
  out.prev_version = stamp->version - 1;
  out.version = stamp->version;
  out.done = dev_done;
  return out;
}

void NodeRuntime::Score(const storage::BlobId& id, float score,
                        sim::SimTime issued) {
  TaskScope task(*this, "score", score_ns_, issued);
  MutexLock lock(exec_mu_);
  if (task.Rejected(shut_down_)) return;
  bm_.SetScore(id, score);
  if (options_.enable_organizer && options_.organize_every > 0) {
    int n = score_updates_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.organize_every == 0) {
      sim::SimTime done = task.start();
      bm_.Rebalance(task.start(), &done);
      task.Finish(done);
    }
  }
}

StatusOr<storage::BlobLocation> NodeRuntime::SnapshotPage(
    const storage::BlobId& id, std::uint64_t bytes,
    std::vector<std::uint8_t>* buf, sim::SimTime now, sim::SimTime* done) {
  storage::BlobStamp stamp;
  MM_ASSIGN_OR_RETURN(*buf, CopyOrHeal(*service_, node_id_, id, node_id_,
                                       bytes, now, done, &stamp));
  MM_ASSIGN_OR_RETURN(storage::BlobLocation entry,
                      service_->metadata().Lookup(id, node_id_, *done,
                                                  nullptr));
  entry.version = stamp.version;
  entry.crc = stamp.crc;
  return entry;
}

TaskOutcome NodeRuntime::StageOut(VectorMeta& meta,
                                  const std::vector<std::uint64_t>& pages,
                                  sim::SimTime issued,
                                  telemetry::TraceContext tctx) {
  TaskScope task(*this, "stage_out", stage_out_ns_, issued, tctx);
  MutexLock lock(exec_mu_);
  if (task.Rejected(shut_down_)) return task.Rejection();
  TaskOutcome out;
  out.done = task.start();
  out.status = service_->EnsureBackend(meta);
  if (!out.status.ok()) return task.Finish(out);
  const std::uint64_t logical =
      meta.size_bytes.load(std::memory_order_relaxed);
  // Copy every page into its own pooled buffer; a run is written from
  // these buffers, never concatenated into a fresh one.
  std::vector<ckpt::JournalRecord> batch;
  batch.reserve(pages.size());
  sim::SimTime read_done = task.start();
  for (std::uint64_t page : pages) {
    const storage::BlobId id{meta.vector_id, page};
    const std::uint64_t page_off = page * meta.page_bytes;
    if (page_off >= logical) continue;  // page past the logical end
    ckpt::JournalRecord rec;
    auto snap = SnapshotPage(id, meta.page_bytes, &rec.payload,
                             task.start(), &read_done);
    if (!snap.ok() || !snap->dirty) {
      // Not resident or no longer placed (nothing to persist), or already
      // staged by an earlier flush. A dirty page whose copy failed its CRC
      // check or its tier read is not journaled, and the flush reports it.
      if (!snap.ok() && snap.status().code() != StatusCode::kNotFound &&
          out.status.ok()) {
        out.status = snap.status();
      }
      pool_.Release(std::move(rec.payload));
      continue;
    }
    // The record promises exactly the snapshot's committed state: its
    // version and full-page CRC, even when the logical tail trims the
    // payload.
    rec.id = id;
    rec.version = snap->version;
    rec.page_crc = snap->crc;
    rec.offset = page_off;
    rec.key = meta.key;
    rec.payload.resize(std::min(meta.page_bytes, logical - page_off));
    batch.push_back(std::move(rec));
  }
  out.done = read_done;
  if (!batch.empty()) {
    Status st = JournaledBackendWrite(meta, batch, read_done, &out.done,
                                      &out.writeback);
    if (st.ok()) {
      for (const auto& rec : batch) {
        // A commit that landed after the snapshot keeps the page dirty.
        service_->metadata().ClearDirty(rec.id, rec.version, node_id_,
                                        out.done, nullptr);
        ++out.pages_written;
        out.bytes_written += rec.payload.size();
      }
    } else {
      out.status = st;
    }
  }
  for (auto& rec : batch) pool_.Release(std::move(rec.payload));
  return task.Finish(out);
}

void NodeRuntime::Erase(const storage::BlobId& id, sim::SimTime issued) {
  TaskScope task(*this, "erase", erase_ns_, issued);
  MutexLock lock(exec_mu_);
  if (task.Rejected(shut_down_)) return;
  (void)bm_.Erase(id);  // absent is fine
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

Service::Service(sim::Cluster* cluster, ServiceOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  MM_CHECK_MSG(!options_.tier_grants.empty(),
               "ServiceOptions.tier_grants must be set");
  // Created before the runtimes: every TierStore keeps a pointer into it.
  injector_ = std::make_unique<sim::FaultInjector>(options_.faults);
  metadata_ = std::make_unique<storage::MetadataManager>(cluster->num_nodes(),
                                                         &cluster->network());
  fenced_ = std::vector<std::atomic<bool>>(cluster->num_nodes());
  for (auto& f : fenced_) f.store(false, std::memory_order_relaxed);
  // Telemetry also precedes the runtimes: each NodeRuntime (and the tier
  // stores under it) resolves its metric handles from telemetry_sink(n)
  // during construction.
  for (std::size_t n = 0; n < cluster->num_nodes(); ++n) {
    metrics_.push_back(std::make_unique<telemetry::MetricsRegistry>());
  }
  trace_ = std::make_unique<telemetry::TraceRecorder>(
      static_cast<std::size_t>(options_.telemetry.trace_capacity));
  trace_->set_enabled(!options_.telemetry.trace_path.empty());
  // Flight recorder is independent of the trace switch: the small span
  // ring stays warm so a crash can leave a postmortem.
  if (!options_.telemetry.flightrec_dir.empty()) trace_->arm_flight();
  reporter_ =
      std::make_unique<telemetry::EpochReporter>(options_.telemetry.report_path);
  // The checkpoint coordinator precedes the runtimes: their steps consult
  // the per-node journals, and startup recovery must heal the
  // backends before any stage-in reads them (DESIGN.md §12).
  ckpt_ = std::make_unique<ckpt::Coordinator>(options_.ckpt,
                                              cluster->num_nodes());
  if (ckpt_->enabled()) {
    std::uint64_t applied = 0, torn = 0;
    Status rec = ckpt_->RecoverOnStartup(&applied, &torn);
    if (!rec.ok()) {
      MM_WARN("ckpt") << "journal recovery failed: " << rec.ToString();
    } else if (applied > 0 || torn > 0) {
      MM_INFO("ckpt") << "journal recovery replayed " << applied
                      << " record(s), discarded " << torn << " torn tail(s)";
    }
    metrics_[0]->GetCounter("mm.ckpt.replayed_count")->Inc(applied);
  }
  for (std::size_t n = 0; n < cluster->num_nodes(); ++n) {
    runtimes_.push_back(std::make_unique<NodeRuntime>(this, n, options_,
                                                      options_.tier_grants));
    // Reserve the DRAM grant against the node budget so MegaMmap's memory
    // consumption is bounded and visible (Figs. 6 and 8).
    for (const auto& grant : options_.tier_grants) {
      if (grant.kind == sim::TierKind::kDram) {
        cluster->node(n).AllocateDram(grant.capacity);
      }
    }
  }
}

Service::~Service() { Shutdown(); }

void Service::Shutdown() {
  if (shut_down_.exchange(true)) return;
  // A crash (ForceCrash or an armed point that fired without reaching a
  // dump site) still leaves a postmortem; explicit dumps closest to the
  // death win over this catch-all.
  if (injector_->crashed() &&
      !flight_dumped_.load(std::memory_order_acquire)) {
    double crash_s;
    {
      MutexLock lock(report_mu_);
      crash_s = last_epoch_s_;
    }
    DumpFlightRecord(0, "shutdown_after_crash", crash_s);
  }
  // Persist every nonvolatile vector before the runtimes die ("during the
  // termination of the runtime, the stager task will be scheduled") — unless
  // the simulated process crashed: a dead process flushes nothing, so
  // on-disk state stays exactly what the crash left for recovery to replay.
  if (!injector_->crashed()) {
    std::vector<VectorMeta*> to_flush;
    {
      // Collect, then flush outside the lock: a flush never holds the
      // registry.
      MutexLock lock(vectors_mu_);
      for (auto& [key, meta] : vectors_) {
        if (meta->stager != nullptr && !meta->destroyed.load()) {
          to_flush.push_back(meta.get());
        }
      }
    }
    for (VectorMeta* meta : to_flush) {
      Status st = FlushVector(*meta, 0, 0.0, nullptr);
      if (!st.ok()) {
        MM_WARN("service") << "shutdown flush of '" << meta->key
                           << "' failed: " << st.ToString();
      }
    }
  }
  for (auto& rt : runtimes_) rt->Shutdown();
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    for (const auto& grant : options_.tier_grants) {
      if (grant.kind == sim::TierKind::kDram) {
        cluster_->node(n).FreeDram(grant.capacity);
      }
    }
  }
  // Final telemetry drain, after every runtime has shut down: one closing
  // epoch (stamped at the last reported virtual time) and the Chrome-trace
  // dump.
  double final_s;
  {
    MutexLock lock(report_mu_);
    final_s = last_epoch_s_;
  }
  // The line was already appended to the report file; the returned copy
  // has no reader at shutdown.
  (void)EpochReport(final_s);
  if (!options_.telemetry.trace_path.empty()) {
    Status st = trace_->WriteJson(options_.telemetry.trace_path);
    if (!st.ok()) {
      MM_WARN("service") << "trace dump to '" << options_.telemetry.trace_path
                         << "' failed: " << st.ToString();
    }
  }
}

telemetry::ClusterSnapshot Service::TelemetrySnapshot() {
  // Refresh the pool gauges first: they are levels sampled from each
  // node's PagePool, not events counted at the source.
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    telemetry::MetricsRegistry& reg = *metrics_[n];
    PagePool& pool = runtimes_[n]->pool();
    reg.GetGauge("mm.pool.alloc_count")
        ->Set(static_cast<std::int64_t>(pool.allocations()));
    reg.GetGauge("mm.pool.reuse_count")
        ->Set(static_cast<std::int64_t>(pool.reuses()));
  }
  telemetry::ClusterSnapshot snap;
  snap.per_node.reserve(metrics_.size());
  for (auto& reg : metrics_) {
    snap.per_node.push_back(reg->Snapshot());
    snap.totals.Merge(snap.per_node.back());
  }
  return snap;
}

std::string Service::EpochReport(double now_s) {
  UpdateCritpathCounters(now_s);
  telemetry::ClusterSnapshot snap = TelemetrySnapshot();
  {
    MutexLock lock(report_mu_);
    last_epoch_s_ = std::max(last_epoch_s_, now_s);
  }
  return reporter_->Epoch(snap, now_s);
}

void Service::UpdateCritpathCounters(double now_s) {
  // All critpath counters live on node 0's registry: the analyzer works on
  // the cluster-wide trace, so per-node registration would double-count in
  // the aggregated snapshot.
  telemetry::MetricsRegistry& reg = *metrics_[0];
  MutexLock lock(report_mu_);
  const double end_us = now_s * 1e6;
  if (end_us > critpath_last_us_) {
    telemetry::CritpathBreakdown cp = telemetry::AnalyzeCritpath(
        trace_->Snapshot(), critpath_last_us_, end_us);
    reg.GetCounter("mm.critpath.queue_wait_ns")->Inc(cp.queue_wait_ns);
    reg.GetCounter("mm.critpath.network_ns")->Inc(cp.network_ns);
    reg.GetCounter("mm.critpath.device_ns")->Inc(cp.device_ns);
    reg.GetCounter("mm.critpath.coherence_ns")->Inc(cp.coherence_ns);
    critpath_last_us_ = end_us;
  }
  if (critpath_wall_) {
    // Mirror the cumulative clock totals into counters so the epoch
    // reporter's delta machinery applies to wall time too.
    auto [compute, stall] = critpath_wall_();
    telemetry::Counter* c = reg.GetCounter("mm.critpath.compute_ns");
    telemetry::Counter* s = reg.GetCounter("mm.critpath.stall_ns");
    const std::uint64_t c_old = c->value();
    const std::uint64_t s_old = s->value();
    if (compute > c_old) c->Inc(compute - c_old);
    if (stall > s_old) s->Inc(stall - s_old);
  }
}

void Service::SetCritpathWallSource(
    std::function<std::pair<std::uint64_t, std::uint64_t>()> source) {
  MutexLock lock(report_mu_);
  critpath_wall_ = std::move(source);
}

void Service::DumpFlightRecord(std::size_t node, std::string_view reason,
                               double now_s) {
  if (options_.telemetry.flightrec_dir.empty()) return;
  if (node >= metrics_.size()) node = 0;
  flight_dumped_.store(true, std::memory_order_release);
  Status st = telemetry::WriteFlightRecord(
      options_.telemetry.flightrec_dir, static_cast<int>(node), reason, now_s,
      *trace_, *metrics_[node]);
  if (!st.ok()) {
    MM_WARN("telemetry") << "flight record dump failed: " << st.ToString();
  }
}

std::string Service::MaybeEpochReport(double now_s) {
  double interval = options_.telemetry.report_interval_s;
  if (interval <= 0.0) return "";
  {
    MutexLock lock(report_mu_);
    if (reporter_->epochs() > 0 && now_s < last_epoch_s_ + interval) return "";
    last_epoch_s_ = std::max(last_epoch_s_, now_s);
  }
  return EpochReport(now_s);
}

StatusOr<VectorMeta*> Service::RegisterVector(const std::string& key,
                                              std::size_t elem_size,
                                              const VectorOptions& options,
                                              std::uint64_t initial_elems) {
  MM_CHECK(elem_size > 0);
  MutexLock lock(vectors_mu_);
  auto it = vectors_.find(key);
  if (it != vectors_.end()) {
    VectorMeta* meta = it->second.get();
    if (meta->elem_size != elem_size) {
      return InvalidArgument("vector '" + key +
                             "' already registered with a different element "
                             "size");
    }
    return meta;
  }
  auto meta = std::make_unique<VectorMeta>();
  meta->key = key;
  meta->vector_id = Fnv1a64(key);
  meta->elem_size = elem_size;
  meta->options = options;
  meta->mode.store(options.mode);
  std::uint64_t elems_per_page = std::max<std::uint64_t>(
      1, options.page_size / elem_size);
  meta->page_bytes = elems_per_page * elem_size;
  if (options.nonvolatile) {
    MM_ASSIGN_OR_RETURN(auto resolved,
                        storage::StagerRegistry::Default().Resolve(key));
    meta->stager = resolved.first;
    meta->uri = resolved.second;
    if (meta->stager->Exists(meta->uri)) {
      MM_ASSIGN_OR_RETURN(std::uint64_t backend_size,
                          meta->stager->Size(meta->uri));
      meta->size_bytes.store(backend_size);
      // The meta is not yet published, but backend_ready's lock contract is
      // per-field, so honor it here too (and it orders with EnsureBackend).
      MutexLock backend_lock(meta->backend_mu);
      meta->backend_ready = true;
    } else {
      meta->size_bytes.store(initial_elems * elem_size);
    }
  } else {
    meta->size_bytes.store(initial_elems * elem_size);
  }
  VectorMeta* raw = meta.get();
  vectors_[key] = std::move(meta);
  return raw;
}

VectorMeta* Service::FindVector(const std::string& key) {
  MutexLock lock(vectors_mu_);
  auto it = vectors_.find(key);
  return it == vectors_.end() ? nullptr : it->second.get();
}

comm::DistributedLock& Service::GetDistributedLock(const std::string& key,
                                                   std::size_t home_node) {
  MutexLock lock(locks_mu_);
  auto it = dlocks_.find(key);
  if (it == dlocks_.end()) {
    it = dlocks_
             .emplace(key, std::make_unique<comm::DistributedLock>(
                               cluster_, home_node))
             .first;
  }
  return *it->second;
}

sim::ChannelWait Service::lease_wait() const {
  MutexLock lock(locks_mu_);
  sim::ChannelWait sum;
  for (const auto& entry : dlocks_) {
    const comm::DistributedLock& dlock = *entry.second;
    sum += dlock.wait();
  }
  return sum;
}

void Service::SetPgasHint(VectorMeta& meta, VectorMeta::PgasHint hint) {
  MutexLock lock(meta.hint_mu);
  meta.pgas_hint = hint;
}

std::size_t Service::Unfenced(std::size_t node) const {
  if (!NodeFenced(node)) return node;
  // Deterministic ring remap: every survivor computes the same substitute
  // owner without communicating.
  for (std::size_t i = 1; i < fenced_.size(); ++i) {
    std::size_t cand = (node + i) % fenced_.size();
    if (!NodeFenced(cand)) return cand;
  }
  return node;  // everyone fenced: nothing sensible to return
}

void Service::FenceNode(std::size_t node) {
  MM_CHECK(node < fenced_.size());
  fenced_[node].store(true, std::memory_order_release);
}

std::size_t Service::DefaultOwner(VectorMeta& meta,
                                  const storage::BlobId& id) {
  std::optional<VectorMeta::PgasHint> hint;
  {
    MutexLock lock(meta.hint_mu);
    hint = meta.pgas_hint;
  }
  if (!hint.has_value() || hint->n_elems == 0 || hint->nprocs <= 0) {
    return Unfenced(metadata().HomeNode(id));
  }
  // Rank owning the page's first element under the balanced partition of
  // n elements over p ranks captured when the hint was set.
  std::uint64_t elem = id.page_idx * meta.elems_per_page();
  if (elem >= hint->n_elems) return Unfenced(metadata().HomeNode(id));
  std::uint64_t n = hint->n_elems, p = hint->nprocs;
  std::uint64_t base = n / p, rem = n % p;
  std::uint64_t rank;
  if (elem < rem * (base + 1)) {
    rank = elem / (base + 1);
  } else {
    rank = rem + (base > 0 ? (elem - rem * (base + 1)) / base : 0);
  }
  std::size_t node = static_cast<std::size_t>(rank) /
                     static_cast<std::size_t>(hint->ranks_per_node);
  return Unfenced(std::min(node, num_nodes() - 1));
}

void Service::OnTierFailure(std::size_t node, sim::TierKind tier,
                            const std::vector<storage::BlobId>& lost,
                            sim::SimTime now) {
  MM_WARN("service") << "tier " << sim::TierKindName(tier) << " on node "
                     << node << " failed permanently; " << lost.size()
                     << " pages lost, dropping their copies";
  // A dropped primary stages back in on its next touch, as after a node
  // death; a lost one is in the loss registry.
  for (const storage::BlobId& id : lost) DropCopy(node, id, node, now, nullptr);
}

Service::RecoveryStats Service::RecoverDeadNode(std::size_t dead_node,
                                                std::size_t from_node,
                                                sim::SimTime now) {
  FenceNode(dead_node);
  RecoveryStats stats;
  std::vector<VectorMeta*> vecs;
  {
    MutexLock lock(vectors_mu_);
    vecs.reserve(vectors_.size());
    for (auto& [key, meta] : vectors_) {
      if (!meta->destroyed.load(std::memory_order_relaxed)) {
        vecs.push_back(meta.get());
      }
    }
  }
  // Every copy on the dead node is lost; survivors re-stage a dropped
  // primary lazily on its next touch, through the remapped DefaultOwner.
  for (VectorMeta* meta : vecs) {
    for (const storage::BlobId& id :
         metadata().BlobsOfVector(meta->vector_id)) {
      ++stats.pages_scanned;
      switch (DropCopy(dead_node, id, from_node, now, nullptr)) {
        case DropOutcome::kClean:
          ++stats.rehomed;
          break;
        case DropOutcome::kHealed:
          ++stats.journal_recovered;
          break;
        case DropOutcome::kLost:
          ++stats.lost;
          break;
        case DropOutcome::kUnplaced:
        case DropOutcome::kReplica:
          break;
      }
    }
  }
  {
    MutexLock lock(lost_mu_);
    last_recovery_.pages_scanned += stats.pages_scanned;
    last_recovery_.rehomed += stats.rehomed;
    last_recovery_.journal_recovered += stats.journal_recovered;
    last_recovery_.lost += stats.lost;
  }
  telemetry::MetricsRegistry& reg = *metrics_[from_node];
  reg.GetCounter("mm.recovery.rehomed_count")->Inc(stats.rehomed);
  reg.GetCounter("mm.recovery.data_loss_count")->Inc(stats.lost);
  MM_WARN("service") << "node " << dead_node << " fenced and re-homed: "
                     << stats.pages_scanned << " pages scanned, "
                     << stats.rehomed << " re-homed, "
                     << stats.journal_recovered << " journal-recovered, "
                     << stats.lost << " lost";
  return stats;
}

Service::DropOutcome Service::DropCopy(std::size_t node,
                                       const storage::BlobId& id,
                                       std::size_t from_node, sim::SimTime now,
                                       sim::SimTime* done) {
  // Best effort: the bytes may be gone already (a drained tier), and a
  // failed erase only wastes cache bytes once the directory forgets them.
  (void)runtime(node).buffer().Erase(id);
  auto loc = metadata().Lookup(id, from_node, now, nullptr);
  if (!loc.ok()) return DropOutcome::kUnplaced;
  if (loc->node != node) {
    // Idempotent: the replica may never have been registered, or already
    // be unregistered.
    (void)metadata().RemoveReplica(id, node, from_node, now, done);
    return DropOutcome::kReplica;
  }
  {
    MutexLock lock(lost_mu_);
    dropped_versions_[id] = loc->version;
  }
  DropOutcome outcome = DropOutcome::kClean;
  if (loc->dirty) {
    // Settled before the entry goes: a fault racing the drop stages in
    // either the healed backend or nothing, never the stale bytes.
    if (TryJournalRecover(node, id, *loc)) {
      outcome = DropOutcome::kHealed;
    } else {
      RecordDataLoss(id, node, now);
      outcome = DropOutcome::kLost;
    }
  }
  // Idempotent: a racing removal leaves nothing to remove.
  (void)metadata().Remove(id, from_node, now, done);
  return outcome;
}

bool Service::TryJournalRecover(std::size_t node, const storage::BlobId& id,
                                const storage::BlobLocation& loc) {
  ckpt::Journal* journal = ckpt_->journal(node);
  if (journal == nullptr) return false;
  auto rec = journal->Latest(id);
  if (!rec.ok() || rec->version < loc.version) return false;
  if (!ckpt::ReapplyRecord(*rec).ok()) return false;
  MM_WARN("ckpt") << "page " << id.ToString() << " on node " << node
                  << " recovered from its redo journal at version "
                  << rec->version;
  return true;
}

void Service::RecordDataLoss(const storage::BlobId& id, std::size_t node,
                             sim::SimTime now) {
  bool fresh;
  {
    MutexLock lock(lost_mu_);
    fresh = lost_.insert(id).second;
  }
  // First registration of each lost page leaves a postmortem (after
  // releasing lost_mu_ — the dump only takes telemetry leaf locks, but
  // keeping the registry lock tight costs nothing).
  if (fresh) DumpFlightRecord(node, "data_loss", now);
}

bool Service::IsDataLost(const storage::BlobId& id) const {
  MutexLock lock(lost_mu_);
  return lost_.count(id) > 0;
}

void Service::ClearDataLoss(const storage::BlobId& id) {
  MutexLock lock(lost_mu_);
  lost_.erase(id);
}

std::size_t Service::data_loss_count() const {
  MutexLock lock(lost_mu_);
  return lost_.size();
}

std::uint64_t Service::RestageVersion(const storage::BlobId& id) const {
  MutexLock lock(lost_mu_);
  auto it = dropped_versions_.find(id);
  return it == dropped_versions_.end() ? 0 : it->second;
}

Status Service::EnsureBackend(VectorMeta& meta) {
  if (meta.stager == nullptr) {
    return FailedPrecondition("vector '" + meta.key + "' is volatile");
  }
  MutexLock lock(meta.backend_mu);
  if (meta.backend_ready) return Status::Ok();
  std::uint64_t size = meta.size_bytes.load(std::memory_order_relaxed);
  if (!meta.stager->Exists(meta.uri)) {
    MM_RETURN_IF_ERROR(meta.stager->Create(meta.uri, size));
  }
  meta.backend_ready = true;
  return Status::Ok();
}

StatusOr<std::vector<std::uint8_t>> Service::ReadPage(VectorMeta& meta,
                                                      std::uint64_t page,
                                                      std::size_t from_node,
                                                      sim::SimTime now,
                                                      sim::SimTime* done,
                                                      std::uint64_t* version) {
  telemetry::NodeSink sink = telemetry_sink(from_node);
  storage::BlobId id{meta.vector_id, page};
  if (IsDataLost(id)) {
    return DataLoss("page " + id.ToString() + " lost unstaged modifications");
  }
  sim::SimTime t = now;
  ReadSource src = ResolveSource(*this, meta, id, from_node, now, &t);
  if (src.node == from_node && src.has_copy) {
    // A valid copy is already on this node: serve it on the calling thread
    // in a buffer from the node's page pool.
    sim::SimTime local_done = t;
    storage::BlobStamp stamp;
    auto local = CopyOrHeal(*this, from_node, id, from_node, meta.page_bytes,
                            now, &local_done, &stamp);
    if (local.status().code() != StatusCode::kNotFound) {
      Merge(local_done, done);
      if (local.ok() && version != nullptr) *version = stamp.version;
      return local;
    }
    // The copy raced an eviction or was dropped: route the fault.
    t = now;
    src = ResolveSource(*this, meta, id, from_node, now, &t);
  }

  // Routed fault = a service-level page fault: count it here (the local
  // copy above is the scache's business), and span the whole fault —
  // metadata lookup, the owner's GetPages, and transfer — on success.
  sink.metrics->GetCounter("mm.service.fault_count")->Inc();
  const std::size_t owner = src.node;
  // Concurrent faults for the same blob on this node share one fetch.
  InflightKey key{from_node, id};
  std::shared_ptr<InflightFetch> fetch;
  bool leader = false;
  // Flow identity of this fault, minted by the leader only: one connected
  // origin → get_page → stager chain per shared fetch (followers record plain
  // spans so no flow ever has two origins).
  telemetry::TraceContext fault_ctx;
  {
    MutexLock lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      fetch = it->second;
    } else {
      leader = true;
      fault_ctx = telemetry::TraceRecorder::NewContext(sink.node);
      fetch = std::make_shared<InflightFetch>();
      inflight_.emplace(key, fetch);
    }
  }
  TaskOutcome outcome;
  if (leader) {
    // Outside the dedup lock: holding it across the fetch would serialise
    // every fault in the service.
    outcome = std::move(SubmitGetPages(*this, meta, page, 1, src.node,
                                       from_node, t, fault_ctx)
                            .front());
    // Written before `done`, which publishes it to the followers.
    fetch->outcome = outcome;
    MutexLock lock(inflight_mu_);
    fetch->done = true;
    inflight_.erase(key);
    inflight_cv_.NotifyAll();
  } else {
    {
      MutexLock lock(inflight_mu_);
      while (!fetch->done) inflight_cv_.Wait(lock);
    }
    outcome = fetch->outcome;  // immutable once `done` is set
  }
  sim::SimTime complete = outcome.done;
  if (outcome.status.ok()) {
    if (version != nullptr) *version = outcome.version;
    complete = DeliverPage(meta, page, owner, from_node, outcome, leader);
    sink.metrics
        ->GetHistogram("mm.service.fault_latency_ns",
                       telemetry::LatencyBoundsNs())
        ->Observe((complete - now) * 1e9);
  }
  // Sync origin of the fault's flow (plain span for non-leader sharers):
  // origin → get_page on the owner → stager, one connected arrow chain
  // across nodes. Closed on the error path too — get_page already
  // recorded its 't' hop, and a dangling flow would fail trace validation.
  sink.trace->CompleteFlow("page_fault", "fault", sink.node, 0, now, complete,
                           fault_ctx, 's');
  Merge(complete, done);
  if (!outcome.status.ok()) return outcome.status;
  return std::move(outcome.data);
}

sim::SimTime Service::DeliverPage(VectorMeta& meta, std::uint64_t page,
                                  std::size_t owner, std::size_t from_node,
                                  const TaskOutcome& outcome, bool replicate) {
  if (owner == from_node) return outcome.done;
  auto rsp = cluster().network().Transfer(outcome.done, owner, from_node,
                                          outcome.data.size());
  const sim::SimTime now = rsp.delivered;
  storage::BlobId id{meta.vector_id, page};
  if (!replicate ||
      !AllowsReplication(meta.mode.load(std::memory_order_relaxed)) ||
      runtime(from_node).buffer().FindBlob(id).has_value()) {
    return now;
  }
  sim::SimTime put_done = now;
  // Replica bytes come from the pool: the replication path runs on every
  // remote read under read-only mode, so it must not allocate steadily.
  PagePool& pool = runtime(from_node).pool();
  std::vector<std::uint8_t> copy = pool.Acquire(outcome.data.size());
  std::copy(outcome.data.begin(), outcome.data.end(), copy.begin());
  // The replica carries the stamp the owner checked or stamped its bytes
  // under.
  const storage::BlobStamp stamp{outcome.version, outcome.crc};
  auto tier = runtime(from_node).buffer().PutScored(
      id, std::move(copy), /*score=*/1.0f, stamp, now, &put_done);
  if (tier.ok()) {
    // Registration cannot fail once the primary entry exists; a lost
    // replica record only costs a remote re-read.
    (void)metadata().AddReplica(id, from_node, from_node, now, nullptr);
    telemetry::NodeSink sink = telemetry_sink(from_node);
    sink.metrics->GetCounter("mm.coherence.replicate_count")->Inc();
    sink.trace->Instant("replicate", "coherence", sink.node, 0, now);
  }
  return now;
}

std::vector<PendingFetch> Service::ReadPagesAsync(VectorMeta& meta,
                                                  std::uint64_t first,
                                                  std::uint64_t n,
                                                  std::size_t from_node,
                                                  sim::SimTime now) {
  telemetry::NodeSink sink = telemetry_sink(from_node);
  std::vector<ReadSource> srcs;
  srcs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    srcs.push_back(ResolveSource(*this, meta, {meta.vector_id, first + i},
                                 from_node, now, nullptr));
    sink.trace->Instant("prefetch_issue", "prefetch", sink.node, 0, now);
  }
  std::vector<PendingFetch> fetches;
  fetches.reserve(n);
  ForEachRun(srcs, first, RunPages(meta), [&](std::uint64_t lo,
                                              std::uint64_t hi) {
    for (auto& out : SubmitGetPages(*this, meta, first + lo, hi - lo,
                                    srcs[lo].node, from_node, now, {})) {
      fetches.push_back({std::move(out), srcs[lo].node});
    }
  });
  return fetches;
}

std::vector<std::pair<std::uint64_t, TaskOutcome>> Service::StageAhead(
    VectorMeta& meta, std::uint64_t first, std::uint64_t n, float score,
    std::size_t from_node, sim::SimTime now) {
  std::vector<std::pair<std::uint64_t, TaskOutcome>> staged;
  std::vector<ReadSource> srcs;
  srcs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    srcs.push_back(ResolveSource(*this, meta, {meta.vector_id, first + i},
                                 from_node, now, nullptr));
  }
  if (std::none_of(srcs.begin(), srcs.end(), Unplaced)) return staged;
  // The backend's extent in pages, a partial last page included.
  const std::uint64_t end =
      (BackendExtent(meta) + meta.page_bytes - 1) / meta.page_bytes;
  ForEachRun(srcs, first, RunPages(meta), [&](std::uint64_t lo,
                                              std::uint64_t hi) {
    if (!Unplaced(srcs[lo]) || first + lo >= end) return;
    hi = std::min(hi, end - first);
    auto outs = SubmitGetPages(*this, meta, first + lo, hi - lo,
                               srcs[lo].node, from_node, now, {}, score,
                               /*placement_only=*/true);
    for (std::uint64_t i = lo; i < hi; ++i) {
      staged.emplace_back(first + i, std::move(outs[i - lo]));
    }
  });
  return staged;
}

std::uint64_t Service::RunPages(const VectorMeta& meta) const {
  const std::uint64_t stripe = cluster_->pfs().spec().stripe_bytes;
  if (meta.stager == nullptr || stripe <= meta.page_bytes) return 1;
  return stripe / meta.page_bytes;
}

double Service::EstimateReadSeconds(VectorMeta& meta, std::uint64_t page,
                                    std::uint64_t bytes) {
  storage::BlobId id{meta.vector_id, page};
  auto loc = metadata().Lookup(id, 0, 0.0, nullptr);
  if (!loc.ok()) {
    // Never placed: a fault would stage in from the backend.
    return cluster().pfs().ReadDuration(bytes);
  }
  double dev = runtime(loc->node).buffer().EstimateReadSeconds(id, bytes);
  return dev;
}

TaskOutcome Service::WriteRegion(VectorMeta& meta, std::uint64_t page,
                                 std::uint64_t offset,
                                 std::vector<std::uint8_t> bytes,
                                 std::size_t from_node, sim::SimTime now) {
  storage::BlobId id{meta.vector_id, page};
  // Writes are routed to the page's owner. Unplaced pages go to the blob's
  // deterministic home node so concurrent first-writes serialize on one
  // node (two producers choosing themselves would fork the page). The
  // Data Organizer can migrate the page toward its writer afterwards
  // (Fig. 3's locality is restored by score locality hints). The lookup is
  // part of the async path, so its cost lands on the network model, not on
  // the caller's clock.
  std::size_t owner = DefaultOwner(meta, id);
  auto loc = metadata().Lookup(id, from_node, now, nullptr);
  if (loc.ok()) owner = loc->node;

  // Async flow origin: the caller's clock does not wait for the commit, so
  // the origin span covers only issue (+ the cross-node transfer). The
  // owner's write_partial span is the terminal hop and closes the flow.
  telemetry::TraceContext wctx =
      telemetry::TraceRecorder::NewContext(static_cast<int>(from_node));
  const sim::SimTime issued =
      owner == from_node
          ? now
          : cluster()
                .network()
                .Transfer(now, from_node, owner, bytes.size())
                .delivered;
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sink.trace->CompleteFlow("write_commit", "commit", sink.node, 0, now, issued,
                           wctx, 'a');
  return runtime(owner).WritePartial(meta, page, offset, std::move(bytes),
                                     from_node, issued, wctx);
}

void Service::SubmitScore(VectorMeta& meta, std::uint64_t page, float score,
                          std::size_t from_node, sim::SimTime now) {
  if (!options_.enable_organizer) return;
  storage::BlobId id{meta.vector_id, page};
  auto loc = metadata().Lookup(id, from_node, now, nullptr);
  if (!loc.ok()) return;  // nothing placed yet; nothing to organize
  runtime(loc->node).Score(id, score, now);
}

Status Service::FlushVector(VectorMeta& meta, std::size_t from_node,
                            sim::SimTime now, sim::SimTime* done,
                            FlushCounts* written) {
  if (meta.stager == nullptr) return Status::Ok();  // volatile: no backend
  MM_RETURN_IF_ERROR(EnsureBackend(meta));
  // One stage-out batch per owner node: its dirty pages, ascending.
  std::map<std::size_t, std::vector<std::uint64_t>> batches;
  for (const auto& id : metadata().BlobsOfVector(meta.vector_id)) {
    auto loc = metadata().Lookup(id, from_node, now, nullptr);
    if (loc.ok() && loc->dirty) batches[loc->node].push_back(id.page_idx);
  }
  // One flow for the whole flush: the "flush" origin below fans out to
  // every stage_out span ('t' hops) across the owning nodes.
  telemetry::TraceContext flush_ctx =
      telemetry::TraceRecorder::NewContext(static_cast<int>(from_node));
  Status first_error;
  sim::SimTime flush_end = now;
  // Each journaled owner's in-place runs: its durability and PFS charges.
  struct Writeback {
    std::size_t owner;
    sim::SimTime durable;
    std::vector<WritebackCharge> charges;
  };
  std::vector<Writeback> writebacks;
  for (auto& [owner, pages] : batches) {
    std::sort(pages.begin(), pages.end());
    // The owner runs its steps in call order, so concurrent flushes of one
    // vector serialize there: a later batch never journals an older
    // snapshot of a page than an earlier one.
    TaskOutcome outcome = runtime(owner).StageOut(meta, pages, now, flush_ctx);
    Merge(outcome.done, done);
    Merge(outcome.done, &flush_end);
    if (written != nullptr) {
      written->pages += outcome.pages_written;
      written->bytes += outcome.bytes_written;
    }
    if (!outcome.status.ok() && first_error.ok()) {
      first_error = outcome.status;
    }
    if (!outcome.writeback.empty()) {
      writebacks.push_back(
          {owner, outcome.done, std::move(outcome.writeback)});
    }
  }
  // Every owner has journaled, so every append above was charged to the PFS
  // before any write-back: none queues behind another owner's in-place
  // writes. The write-backs run from each owner's durability; nobody waits
  // for them, so each is a span outside the flush's flow.
  sim::Device& pfs = cluster().pfs();
  for (const Writeback& wb : writebacks) {
    sim::SimTime wb_end = wb.durable;
    for (const WritebackCharge& c : wb.charges) {
      wb_end = std::max(wb_end, pfs.Write(c.start, c.bytes, c.time_factor));
    }
    telemetry::NodeSink sink = telemetry_sink(wb.owner);
    sink.trace->Complete("writeback", "stager", sink.node, 0, wb.durable,
                         wb_end);
    meta.RaiseWritebackHorizon(wb_end);
  }
  if (!batches.empty()) {
    telemetry::NodeSink sink = telemetry_sink(from_node);
    // `done == nullptr` is the FlushAsync path: the caller's clock never
    // advances to flush_end, so the flow must be async ('a') or the
    // critical-path analyzer would charge a stall nobody paid. An async
    // origin does not close its flow; a terminal hop at flush_end, after
    // every stage_out hop, does.
    sink.trace->CompleteFlow("flush", "flush", sink.node, 0, now, flush_end,
                             flush_ctx, done != nullptr ? 's' : 'a');
    if (done == nullptr) {
      sink.trace->CompleteFlow("flush_done", "flush", sink.node, 0, flush_end,
                               flush_end, flush_ctx, 'f');
    }
  }
  return first_error;
}

Status Service::ChangePhase(VectorMeta& meta, CoherenceMode new_mode,
                            std::size_t from_node, sim::SimTime now,
                            sim::SimTime* done) {
  CoherenceMode old_mode = meta.mode.exchange(new_mode);
  if (AllowsReplication(old_mode) && !AllowsReplication(new_mode)) {
    // Leaving read-only: all replicas produced during reads are invalidated
    // (paper §III-C "Changing Phases").
    telemetry::NodeSink sink = telemetry_sink(from_node);
    for (const auto& id : metadata().BlobsOfVector(meta.vector_id)) {
      sim::SimTime inval_done = now;
      auto dropped =
          metadata().InvalidateReplicas(id, from_node, now, &inval_done);
      Merge(inval_done, done);
      if (!dropped.empty()) {
        // A real span (not an instant): the critical-path analyzer charges
        // coherence stalls by span duration.
        sink.trace->Complete("invalidate", "coherence", sink.node, 0, now,
                             inval_done);
      }
      // Fire-and-forget replica erases; stale bytes are re-validated by
      // version on the next acquire anyway.
      for (std::size_t node : dropped) runtime(node).Erase(id, inval_done);
    }
  }
  return Status::Ok();
}

Status Service::DestroyVector(VectorMeta& meta, bool remove_backend) {
  bool expected = false;
  if (!meta.destroyed.compare_exchange_strong(expected, true)) {
    return Status::Ok();  // idempotent
  }
  for (const auto& id : metadata().BlobsOfVector(meta.vector_id)) {
    auto loc = metadata().Lookup(id, 0, 0.0, nullptr);
    if (loc.ok()) {
      // Teardown: the vector is being destroyed, so kNotFound races with
      // concurrent eviction are expected and harmless.
      (void)runtime(loc->node).buffer().Erase(id);
      for (std::size_t node : metadata().Replicas(id, 0, 0.0, nullptr)) {
        // Same teardown race as above.
        (void)runtime(node).buffer().Erase(id);
      }
    }
    // Idempotent directory drop during teardown.
    (void)metadata().Remove(id, 0, 0.0, nullptr);
  }
  if (remove_backend && meta.stager != nullptr &&
      meta.stager->Exists(meta.uri)) {
    MM_RETURN_IF_ERROR(meta.stager->Remove(meta.uri));
  }
  return Status::Ok();
}

std::uint64_t Service::ScacheDramUsed() const {
  std::uint64_t total = 0;
  for (const auto& rt : runtimes_) {
    auto& bm = const_cast<NodeRuntime&>(*rt).buffer();
    for (std::size_t t = 0; t < bm.num_tiers(); ++t) {
      if (bm.tier(t).kind() == sim::TierKind::kDram) {
        total += bm.tier(t).used();
      }
    }
  }
  return total;
}

}  // namespace mm::core
