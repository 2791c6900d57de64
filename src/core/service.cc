#include "mm/core/service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "mm/core/pcache.h"
#include "mm/sim/cost_model.h"
#include "mm/telemetry/critpath.h"
#include "mm/telemetry/flightrec.h"
#include "mm/util/logging.h"

namespace mm::core {

namespace {
constexpr std::uint64_t kControlBytes = 64;  // task request envelope

void Merge(sim::SimTime end, sim::SimTime* done) {
  if (done != nullptr) *done = std::max(*done, end);
}

const char* TaskKindName(MemoryTask::Kind kind) {
  switch (kind) {
    case MemoryTask::Kind::kGetPage:
      return "get_page";
    case MemoryTask::Kind::kWritePartial:
      return "write_partial";
    case MemoryTask::Kind::kScore:
      return "score";
    case MemoryTask::Kind::kStageOut:
      return "stage_out";
    case MemoryTask::Kind::kErase:
      return "erase";
    case MemoryTask::Kind::kBarrier:
      return "barrier";
  }
  return "task";
}

// Names are spelt out per kind so they stay literal (lint rule MML006
// validates literals).
telemetry::Histogram* TaskHistogram(telemetry::NodeSink sink,
                                    MemoryTask::Kind kind) {
  std::vector<double> bounds = telemetry::LatencyBoundsNs();
  switch (kind) {
    case MemoryTask::Kind::kGetPage:
      return sink.metrics->GetHistogram("mm.task.get_page_ns",
                                        std::move(bounds));
    case MemoryTask::Kind::kWritePartial:
      return sink.metrics->GetHistogram("mm.task.write_partial_ns",
                                        std::move(bounds));
    case MemoryTask::Kind::kScore:
      return sink.metrics->GetHistogram("mm.task.score_ns", std::move(bounds));
    case MemoryTask::Kind::kStageOut:
      return sink.metrics->GetHistogram("mm.task.stage_out_ns",
                                        std::move(bounds));
    case MemoryTask::Kind::kBarrier:
      return sink.metrics->GetHistogram("mm.task.barrier_ns",
                                        std::move(bounds));
    default:
      return sink.metrics->GetHistogram("mm.task.erase_ns", std::move(bounds));
  }
}

telemetry::Gauge* TierUsedGauge(telemetry::MetricsRegistry& reg,
                                sim::TierKind kind) {
  switch (kind) {
    case sim::TierKind::kDram:
      return reg.GetGauge("mm.tier.dram_used_bytes");
    case sim::TierKind::kNvme:
      return reg.GetGauge("mm.tier.nvme_used_bytes");
    case sim::TierKind::kSsd:
      return reg.GetGauge("mm.tier.ssd_used_bytes");
    case sim::TierKind::kHdd:
      return reg.GetGauge("mm.tier.hdd_used_bytes");
    default:
      return reg.GetGauge("mm.tier.pfs_used_bytes");
  }
}

// ---------------------------------------------------------------------------
// The page-read pipeline (DESIGN.md §6). Every read path is built from the
// same three stages: the caller-thread fault (Service::ReadPage), the
// lock-free probe (Service::TryReadPageOptimistic), the prefetch
// (Service::ReadPageAsync) and the owner's worker
// (NodeRuntime::ExecuteGetPage).
// ---------------------------------------------------------------------------

/// Where a read of one page may be served from.
struct ReadSource {
  std::optional<storage::BlobLocation> loc;  // directory entry; unplaced: none
  std::size_t node = 0;                      // serving node
  /// `node` holds bytes the §6 rule accepts: the local copy of an unplaced
  /// page, the primary, or a registered replica. False for a default or
  /// fenced-remapped owner, which must stage the page in.
  bool has_copy = false;
};

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
  // until the queued erase drains, and serving them would label stale data
  // with the current version — or, routed at a worker the erase beat,
  // fabricate a zero page.
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

/// Stage 2: copies `id` out of `node`'s scache into *buf, then re-reads the
/// page's directory entry into *entry (none: unplaced) and checks the copy
/// against its CRC. A commit changes the bytes before the CRC, so judging
/// the bytes by an entry read after them confines a false mismatch to a
/// commit caught between the two reads. The copy is charged to *done; the
/// re-read, issued when the copy completes, to *lookup_done (nullptr:
/// uncharged). Returns OK, kDataLoss on a mismatch, or the copy's error.
Status VerifiedCopy(Service& svc, std::size_t node, const storage::BlobId& id,
                    std::size_t from_node, std::vector<std::uint8_t>* buf,
                    sim::SimTime now, sim::SimTime* done,
                    sim::SimTime* lookup_done,
                    std::optional<storage::BlobLocation>* entry) {
  MM_RETURN_IF_ERROR(svc.runtime(node).buffer().GetInto(id, buf, now, done));
  auto reread = svc.metadata().Lookup(id, from_node, *done, lookup_done);
  entry->reset();
  if (reread.ok()) *entry = *reread;
  if (*entry && svc.options().verify_checksums && (*entry)->crc != 0 &&
      Crc32(*buf) != (*entry)->crc) {
    return DataLoss("copy of page " + id.ToString() + " on node " +
                    std::to_string(node) + " failed its CRC check");
  }
  return Status::Ok();
}

/// VerifiedCopy into a pooled `bytes`-sized buffer of `from_node`, under
/// the one failure policy of the healing readers (the caller-thread fault
/// and the owner's worker; the lock-free probe declines instead). A CRC
/// mismatch drops the copy on `node` and the directory's claim on it — the
/// replica record, or the whole entry for the primary — and a dirty
/// primary's loss is recorded; a clean copy that errored is dropped.
/// Returns the bytes, kNotFound when the page must be fetched elsewhere, or
/// a terminal error (typed data loss, an I/O error on dirty bytes). The
/// directory re-read is uncharged; heal charges land on *done (non-null).
StatusOr<std::vector<std::uint8_t>> CopyOrHeal(
    Service& svc, std::size_t node, const storage::BlobId& id,
    std::size_t from_node, std::uint64_t bytes, sim::SimTime now,
    sim::SimTime* done) {
  PagePool& pool = svc.runtime(from_node).pool();
  std::vector<std::uint8_t> buf = pool.Acquire(bytes);
  PoolReturn buf_guard(pool, buf);
  std::optional<storage::BlobLocation> loc;
  Status st = VerifiedCopy(svc, node, id, from_node, &buf, now, done,
                           /*lookup_done=*/nullptr, &loc);
  if (st.ok()) return buf;  // implicit move detaches from buf_guard
  if (st.code() == StatusCode::kDataLoss) {
    // Silent media corruption. Drop the poisoned bytes (best effort: the
    // page is re-fetched next, so a failed erase only wastes cache bytes),
    // then the directory's claim on them.
    (void)svc.runtime(node).buffer().Erase(id);
    if (loc->node != node) {
      // Idempotent: the replica may already be unregistered.
      (void)svc.metadata().RemoveReplica(id, node, from_node, *done, done);
    } else {
      // Idempotent: a racing removal leaves nothing to remove.
      (void)svc.metadata().Remove(id, from_node, *done, done);
      if (loc->dirty) {
        svc.RecordDataLoss(id, from_node, *done);
        return DataLoss("page " + id.ToString() +
                        " failed CRC check with unstaged modifications");
      }
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

/// Stage 3: builds the kGetPage task for `id` and routes it to `owner`,
/// charging the request envelope when remote.
std::shared_future<TaskOutcome> SubmitGetPage(Service& svc, VectorMeta& meta,
                                              const storage::BlobId& id,
                                              std::size_t owner,
                                              std::size_t from_node,
                                              sim::SimTime now,
                                              telemetry::TraceContext tctx) {
  MemoryTask task;
  task.kind = MemoryTask::Kind::kGetPage;
  task.vector_id = meta.vector_id;
  task.id = id;
  task.size = meta.page_bytes;
  task.from_node = from_node;
  task.tctx = tctx;
  task.promise = std::make_shared<std::promise<TaskOutcome>>();
  task.issue_time =
      owner == from_node ? now
                         : svc.cluster()
                               .network()
                               .Transfer(now, from_node, owner, kControlBytes)
                               .delivered;
  std::shared_future<TaskOutcome> future = task.promise->get_future().share();
  // A shutdown rejection still fulfills the promise, so the future carries
  // the error to every waiter.
  (void)svc.runtime(owner).Submit(std::move(task));
  return future;
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
      queue_depth_(tel_.metrics->GetGauge("mm.task.queue_depth_count")),
      stager_read_bytes_(tel_.metrics->GetCounter("mm.stager.read_bytes")),
      stager_write_bytes_(tel_.metrics->GetCounter("mm.stager.write_bytes")),
      stager_errors_(tel_.metrics->GetCounter("mm.stager.errors_count")),
      stager_retries_(tel_.metrics->GetCounter("mm.stager.retries_count")),
      task_latency_{TaskHistogram(tel_, MemoryTask::Kind::kGetPage),
                    TaskHistogram(tel_, MemoryTask::Kind::kWritePartial),
                    TaskHistogram(tel_, MemoryTask::Kind::kScore),
                    TaskHistogram(tel_, MemoryTask::Kind::kStageOut),
                    TaskHistogram(tel_, MemoryTask::Kind::kErase),
                    TaskHistogram(tel_, MemoryTask::Kind::kBarrier)},
      ckpt_journal_bytes_(tel_.metrics->GetCounter("mm.ckpt.journal_bytes")),
      readpath_hit_(
          tel_.metrics->GetCounter("mm.readpath.fastpath_hit_count")),
      readpath_retry_(tel_.metrics->GetCounter("mm.readpath.retry_count")),
      readpath_fallback_(
          tel_.metrics->GetCounter("mm.readpath.fallback_count")),
      bm_(&service->cluster().node(node_id), grants,
          &service->fault_injector(), options.retry, tel_) {
  bm_.SetTierFailureHandler(
      [this](sim::TierKind kind, const std::vector<storage::BlobId>& lost,
             sim::SimTime now) {
        service_->OnTierFailure(node_id_, kind, lost, now);
      });
  int high = std::max(1, options_.workers_per_node);
  int low = std::max(0, options_.low_latency_workers);
  for (int i = 0; i < high; ++i) {
    high_queues_.push_back(std::make_unique<BlockingQueue<MemoryTask>>());
  }
  for (int i = 0; i < low; ++i) {
    low_queues_.push_back(std::make_unique<BlockingQueue<MemoryTask>>());
  }
  int wid = 0;
  auto spawn = [this, &wid](BlockingQueue<MemoryTask>* q) {
    int id = wid++;
    workers_.emplace_back([this, q, id] { WorkerLoop(q, id); });
  };
  for (auto& q : high_queues_) spawn(q.get());
  for (auto& q : low_queues_) spawn(q.get());
}

NodeRuntime::~NodeRuntime() { Shutdown(); }

void NodeRuntime::Shutdown() {
  if (shut_down_.exchange(true)) return;
  for (auto& q : high_queues_) q->Close();
  for (auto& q : low_queues_) q->Close();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

sim::SimTime NodeRuntime::Quiesce(sim::SimTime now) {
  // One barrier marker per queue: FIFO order guarantees that by the time a
  // marker's promise resolves, every task enqueued before it has executed.
  // Markers go straight to the queues — not through Submit's digest routing
  // — so every queue in both groups drains, and the depth gauge is mirrored
  // by hand for the same reason.
  std::vector<std::future<TaskOutcome>> pending;
  auto push_marker = [&](BlockingQueue<MemoryTask>* q) {
    MemoryTask marker;
    marker.kind = MemoryTask::Kind::kBarrier;
    marker.issue_time = now;
    marker.promise = std::make_shared<std::promise<TaskOutcome>>();
    std::future<TaskOutcome> fut = marker.promise->get_future();
    if (shut_down_.load(std::memory_order_acquire) ||
        !q->Push(std::move(marker))) {
      // Closed queue: its worker already drained and exited — nothing to
      // wait for (and the unfulfilled promise must not be waited on).
      return;
    }
    queue_depth_->Add(1);
    pending.push_back(std::move(fut));
  };
  for (auto& q : high_queues_) push_marker(q.get());
  for (auto& q : low_queues_) push_marker(q.get());
  sim::SimTime done = now;
  for (auto& fut : pending) {
    done = std::max(done, fut.get().done);
  }
  return done;
}

Status NodeRuntime::Submit(MemoryTask task) {
  bool is_write = task.kind == MemoryTask::Kind::kWritePartial ||
                  task.kind == MemoryTask::Kind::kStageOut ||
                  task.kind == MemoryTask::Kind::kErase;
  std::uint64_t digest = task.id.Digest();
  // Writes always go to the (ordered, page-hashed) high-latency group so
  // same-page writes serialize; small reads and scores take the
  // low-latency group to dodge head-of-line blocking (paper §III-B).
  BlockingQueue<MemoryTask>* queue;
  if (!is_write && !low_queues_.empty() &&
      TaskBytes(task) < options_.low_latency_threshold) {
    queue = low_queues_[digest % low_queues_.size()].get();
  } else {
    queue = high_queues_[digest % high_queues_.size()].get();
  }
  // A shutdown race is an orderly rejection, not a crash: Push refuses
  // (without consuming the task) once the queue is closed, and the task's
  // promise — if any — is fulfilled so no waiter hangs.
  if (!shut_down_.load(std::memory_order_acquire) &&
      queue->Push(std::move(task))) {
    queue_depth_->Add(1);
    return Status::Ok();
  }
  Status st = FailedPrecondition("submit after runtime shutdown");
  if (task.promise != nullptr) {
    TaskOutcome out;
    out.status = st;
    out.done = task.issue_time;
    task.promise->set_value(std::move(out));
  }
  return st;
}

void NodeRuntime::WorkerLoop(BlockingQueue<MemoryTask>* queue, int worker_id) {
  // Worker log lines carry the node rank. No virtual-clock callback: tasks
  // carry their own issue times, there is no per-worker clock to sample.
  ScopedLogContext log_ctx(nullptr, static_cast<int>(node_id_));
  while (auto task = queue->Pop()) {
    queue_depth_->Add(-1);
    const MemoryTask::Kind kind = task->kind;
    const sim::SimTime issued = task->issue_time;
    const telemetry::TraceContext tctx = task->tctx;
    TaskOutcome outcome;
    {
      // Ambient context for the duration of the task: nested stager/tier
      // spans join the origin's flow without parameter plumbing.
      telemetry::TraceContextScope flow_scope(tctx);
      outcome = Execute(*task);
    }
    task_executed_->Inc();
    task_latency_[static_cast<int>(kind)]->Observe((outcome.done - issued) *
                                                   1e9);
    if (tctx.valid()) {
      // Child span of the origin's flow; terminal tasks (async write
      // commits) close the flow, everything else is a plain step.
      tel_.trace->CompleteFlow(TaskKindName(kind), "task", tel_.node,
                               worker_id, issued, outcome.done, tctx,
                               task->trace_terminal ? 'f' : 't');
    } else {
      tel_.trace->Complete(TaskKindName(kind), "task", tel_.node, worker_id,
                           issued, outcome.done);
    }
    // Recycle the request payload (Execute consumed it) whether the task
    // succeeded or failed, so error paths do not leak buffers out of the
    // pool's circulation.
    if (task->data.capacity() > 0) pool_.Release(std::move(task->data));
    if (task->promise != nullptr) {
      task->promise->set_value(std::move(outcome));
    } else if (outcome.data.capacity() > 0) {
      // Fire-and-forget: nobody adopts the outcome, reuse its buffer.
      pool_.Release(std::move(outcome.data));
    }
  }
}

TaskOutcome NodeRuntime::Execute(MemoryTask& task) {
  // Every task pays the software dispatch cost before touching devices.
  task.issue_time += sim::CostModel::Default().task_dispatch_s;
  switch (task.kind) {
    case MemoryTask::Kind::kGetPage:
      return ExecuteGetPage(task);
    case MemoryTask::Kind::kWritePartial:
      return ExecuteWritePartial(task);
    case MemoryTask::Kind::kScore:
      return ExecuteScore(task);
    case MemoryTask::Kind::kStageOut:
      return ExecuteStageOut(task);
    case MemoryTask::Kind::kErase:
      return ExecuteErase(task);
    case MemoryTask::Kind::kBarrier: {
      // Quiesce marker: by FIFO order, every task enqueued before it has
      // executed. Nothing to do but report when the queue drained.
      TaskOutcome out;
      out.done = task.issue_time;
      return out;
    }
  }
  return TaskOutcome{Internal("unknown task kind"), {}, task.issue_time};
}

Status NodeRuntime::BackendRead(VectorMeta& meta, std::uint64_t offset,
                                std::uint64_t size,
                                std::vector<std::uint8_t>* bytes,
                                sim::SimTime now, sim::SimTime* done) {
  sim::Device& pfs = service_->cluster().pfs();
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
        bytes->clear();
        MM_RETURN_IF_ERROR(meta.stager->Read(meta.uri, offset, size, bytes));
        *attempt_done =
            std::max(*attempt_done, pfs.Read(start, size, d.spike_factor));
        return Status::Ok();
      },
      &attempts);
  Merge(end, done);
  if (!st.ok()) {
    // One warning per retry burst — RunWithRetry already exhausted the
    // per-attempt detail; repeating the URI for every attempt only de-tunes
    // the log. The counter is what the epoch report surfaces.
    stager_errors_->Inc();
    MM_WARN("stager") << "backend read of '" << meta.key << "' failed after "
                      << attempts << " attempt(s): " << st.ToString();
    return st;
  }
  if (attempts > 1) {
    stager_retries_->Inc(static_cast<std::uint64_t>(attempts - 1));
  }
  stager_read_bytes_->Inc(bytes->size());
  tel_.trace->CompleteFlow("stager_read", "stager", tel_.node, 0, now, end,
                           telemetry::CurrentTraceContext(), 't');
  return st;
}

Status NodeRuntime::BackendWrite(VectorMeta& meta,
                                 std::span<const ckpt::JournalRecord> run,
                                 sim::SimTime now, sim::SimTime* done) {
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
        *attempt_done = std::max(*attempt_done,
                                 pfs.Write(start, run_bytes, d.spike_factor));
        return Status::Ok();
      },
      &attempts);
  Merge(end, done);
  if (!st.ok()) {
    // Same once-per-burst policy as BackendRead.
    stager_errors_->Inc();
    MM_WARN("stager") << "backend write of '" << meta.key << "' failed after "
                      << attempts << " attempt(s): " << st.ToString();
    return st;
  }
  if (attempts > 1) {
    stager_retries_->Inc(static_cast<std::uint64_t>(attempts - 1));
  }
  stager_write_bytes_->Inc(run_bytes);
  tel_.trace->CompleteFlow("stager_write", "stager", tel_.node, 0, now, end,
                           telemetry::CurrentTraceContext(), 't');
  return st;
}

Status NodeRuntime::JournaledBackendWrite(
    VectorMeta& meta, std::span<const ckpt::JournalRecord> batch,
    sim::SimTime now, sim::SimTime* done) {
  sim::FaultInjector& inj = service_->fault_injector();
  if (inj.crashed()) {
    // A dead process writes nothing: later flushes of the same run must not
    // touch disk after the armed crash fired.
    return Unavailable("node crashed (simulated)");
  }
  ckpt::Journal* journal =
      service_->checkpointer().journaling() ? service_->journal(node_id_)
                                            : nullptr;
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
    MM_RETURN_IF_ERROR(BackendWrite(meta, run, durable, done));
  }
  return Status::Ok();
}

TaskOutcome NodeRuntime::StageInOrZero(VectorMeta& meta,
                                       const storage::BlobId& id,
                                       sim::SimTime now) {
  TaskOutcome out;
  out.done = now;
  std::uint64_t page_off = id.page_idx * meta.page_bytes;
  std::uint64_t logical = meta.size_bytes.load(std::memory_order_relaxed);
  // Pooled and explicitly zeroed: a recycled buffer must not leak a
  // previous page's bytes into a logically-fresh page. Ownership travels
  // out as the TaskOutcome payload; the worker recycles it after use.
  // mm-verify: allow(MML002 buffer leaves as the returned outcome payload)
  out.data = pool_.AcquireZeroed(meta.page_bytes);
  if (meta.stager != nullptr && page_off < logical) {
    std::uint64_t want = std::min(meta.page_bytes, logical - page_off);
    // Only stage in what the backend actually holds.
    bool exists = false;
    std::uint64_t backend_size = 0;
    {
      MutexLock lock(meta.backend_mu);
      exists = meta.backend_ready || meta.stager->Exists(meta.uri);
    }
    if (exists) {
      auto size_or = meta.stager->Size(meta.uri);
      if (size_or.ok()) backend_size = *size_or;
    }
    if (backend_size > page_off) {
      std::uint64_t avail = std::min<std::uint64_t>(want, backend_size - page_off);
      // Read straight into the page; the resize restores the zero tail past
      // the backend's end.
      out.status =
          BackendRead(meta, page_off, avail, &out.data, now, &out.done);
      out.data.resize(meta.page_bytes);
    }
  }
  return out;
}

TaskOutcome NodeRuntime::ExecuteGetPage(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  if (service_->IsDataLost(task.id)) {
    out.status = DataLoss("page " + task.id.ToString() +
                          " lost unstaged modifications");
    return out;
  }
  VectorMeta* meta = service_->FindVectorById(task.id.vector_id);
  if (meta == nullptr) {
    out.status = NotFound("unknown vector for blob " + task.id.ToString());
    return out;
  }
  // The caller routed on directory state that may have moved since (e.g. an
  // invalidated replica erased in between): re-apply the §6 rule here.
  const ReadSource src = ResolveSource(*service_, *meta, task.id, node_id_,
                                       task.issue_time, nullptr);
  StatusOr<std::vector<std::uint8_t>> copy =
      NotFound("no valid copy on this node");
  if (src.node == node_id_ && src.has_copy) {
    copy = CopyOrHeal(*service_, node_id_, task.id, node_id_, task.size,
                      out.done, &out.done);
  }
  // No usable local bytes. If the directory maps the blob to another node,
  // serve the read through from the recorded owner. Falling into the
  // zero-fill below would re-register a zero page under the preserved
  // version and re-home the directory here, making the real copy
  // unreachable.
  if (copy.status().code() == StatusCode::kNotFound && src.loc &&
      src.loc->node != node_id_) {
    const std::size_t owner = src.loc->node;
    copy = CopyOrHeal(*service_, owner, task.id, node_id_, task.size,
                      out.done, &out.done);
    if (copy.ok()) {
      out.done = service_->cluster()
                     .network()
                     .Transfer(out.done, owner, node_id_, copy->size())
                     .delivered;
    }
  }
  if (copy.ok()) {
    out.data = std::move(copy).value();
    if (src.loc) out.version = src.loc->version;
    return out;
  }
  if (copy.status().code() != StatusCode::kNotFound) {
    out.status = copy.status();
    return out;
  }
  // Fault through to the backend (or zero-fill a fresh page).
  out = StageInOrZero(*meta, task.id, task.issue_time);
  if (!out.status.ok()) return out;
  // Restored and written-through pages keep a directory entry with a kPfs
  // residency hint and the committed full-page CRC: verify the staged-in
  // bytes against it, so a torn or stale backend page surfaces as typed
  // data loss instead of silently serving wrong bytes (DESIGN.md §12).
  if (options_.verify_checksums && meta->stager != nullptr && src.loc &&
      src.loc->tier == sim::TierKind::kPfs && !src.loc->dirty &&
      src.loc->crc != 0 && Crc32(out.data) != src.loc->crc) {
    service_->RecordDataLoss(task.id, node_id_, out.done);
    pool_.Release(std::move(out.data));
    out.data.clear();
    out.status = DataLoss("page " + task.id.ToString() +
                          " staged in from the backend does not match its "
                          "recorded checksum");
    return out;
  }
  // Cache the page locally and record its location. A full scache is not an
  // error for reads: the page is served through without caching. The cached
  // copy comes from the pool so the steady-state read path allocates nothing.
  sim::SimTime put_done = out.done;
  std::vector<std::uint8_t> cache_copy = pool_.Acquire(out.data.size());
  std::copy(out.data.begin(), out.data.end(), cache_copy.begin());
  auto tier = bm_.PutScored(task.id, std::move(cache_copy), task.score,
                            out.done, &put_done);
  if (tier.ok()) {
    // Preserve an existing version if the page previously lived elsewhere
    // (e.g. written through to the backend).
    storage::BlobLocation loc;
    loc.node = node_id_;
    loc.tier = bm_.tier(*tier).kind();
    loc.size = out.data.size();
    loc.score = task.score;
    loc.score_node = task.from_node;
    loc.dirty = false;
    loc.version = src.loc ? src.loc->version : 0;
    loc.crc = Crc32(out.data);
    // Directory upsert on the home shard cannot fail; timing is charged
    // through `done` on the read path instead.
    (void)service_->metadata().Update(task.id, loc, node_id_, out.done,
                                      nullptr);
    out.version = loc.version;
    out.done = put_done;
  }
  return out;
}

TaskOutcome NodeRuntime::ExecuteWritePartial(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  VectorMeta* meta = service_->FindVectorById(task.id.vector_id);
  if (meta == nullptr) {
    out.status = NotFound("unknown vector for blob " + task.id.ToString());
    return out;
  }
  if (service_->IsDataLost(task.id)) {
    if (task.offset == 0 && task.data.size() >= meta->page_bytes) {
      // A full-page overwrite replaces the lost bytes entirely, so the page
      // is whole again.
      service_->ClearDataLoss(task.id);
    } else {
      out.status = DataLoss("partial write to page " + task.id.ToString() +
                            " that lost unstaged modifications");
      return out;
    }
  }
  sim::SimTime dev_done = task.issue_time;
  Status st = bm_.PutPartial(task.id, task.offset, task.data, task.issue_time,
                             &dev_done);
  if (st.code() == StatusCode::kNotFound ||
      st.code() == StatusCode::kUnavailable) {
    // Page not resident (or its tier just died): materialize it (stage-in
    // or zeros), apply the modification, and cache the result. If the tier
    // death took unstaged modifications with it (recorded by OnTierFailure
    // during the failed PutPartial), a partial rewrite over zeros would be
    // silent corruption — surface it instead.
    if (service_->IsDataLost(task.id)) {
      if (task.offset == 0 && task.data.size() >= meta->page_bytes) {
        service_->ClearDataLoss(task.id);
      } else {
        out.status = DataLoss("partial write to page " + task.id.ToString() +
                              " that lost unstaged modifications");
        return out;
      }
    }
    TaskOutcome base = StageInOrZero(*meta, task.id, task.issue_time);
    if (!base.status.ok()) return base;
    MM_CHECK(task.offset + task.data.size() <= base.data.size());
    std::copy(task.data.begin(), task.data.end(),
              base.data.begin() + static_cast<std::ptrdiff_t>(task.offset));
    dev_done = base.done;
    std::vector<std::uint8_t> page_data = std::move(base.data);
    // page_data came from the pool (StageInOrZero); hand it back on every
    // exit from this scope, including errors.
    PoolReturn page_guard(pool_, page_data);
    std::uint32_t page_crc = Crc32(page_data);
    std::vector<std::uint8_t> cache_copy = pool_.Acquire(page_data.size());
    std::copy(page_data.begin(), page_data.end(), cache_copy.begin());
    auto tier = bm_.PutScored(task.id, std::move(cache_copy), task.score,
                              dev_done, &dev_done);
    auto prev = service_->metadata().Lookup(task.id, node_id_, dev_done,
                                            nullptr);
    storage::BlobLocation loc;
    loc.node = node_id_;
    loc.size = meta->page_bytes;
    loc.score = task.score;
    loc.score_node = task.from_node;
    loc.version = (prev.ok() ? prev->version : 0) + 1;
    loc.crc = page_crc;
    if (tier.ok()) {
      loc.tier = bm_.tier(*tier).kind();
      loc.dirty = true;
    } else {
      if (meta->stager == nullptr) {
        // Volatile vector with a full scache: the write cannot be held.
        out.status = tier.status();
        return out;
      }
      // Nonvolatile vector, scache full (or dead) everywhere: write
      // straight through to the backend. Later faults stage the page back
      // in from there.
      Status eb = service_->EnsureBackend(*meta);
      if (!eb.ok()) {
        out.status = eb;
        return out;
      }
      std::uint64_t page_off = task.id.page_idx * meta->page_bytes;
      std::uint64_t logical = meta->size_bytes.load(std::memory_order_relaxed);
      std::uint64_t want = std::min<std::uint64_t>(
          page_data.size(), logical > page_off ? logical - page_off : 0);
      page_data.resize(want);
      // Journal under the NEW version being committed: the write-through is
      // this page's only durable copy, so its redo record is what recovery
      // replays if the in-place write tears. A batch of one page; the
      // pooled bytes swap back for page_guard.
      ckpt::JournalRecord rec;
      rec.id = task.id;
      rec.version = loc.version;
      rec.page_crc = loc.crc;
      rec.offset = page_off;
      rec.key = meta->key;
      rec.payload.swap(page_data);
      Status wt =
          JournaledBackendWrite(*meta, {&rec, 1}, dev_done, &dev_done);
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
    (void)service_->metadata().Update(task.id, loc, node_id_, dev_done,
                                      nullptr);
    out.version = loc.version;
    out.done = dev_done;
    return out;
  }
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  // Mark dirty, bump the write version, and re-checksum the committed page.
  auto loc = service_->metadata().Lookup(task.id, node_id_, dev_done, nullptr);
  if (loc.ok()) {
    storage::BlobLocation updated = *loc;
    updated.dirty = true;
    out.prev_version = updated.version;
    ++updated.version;
    auto crc = bm_.Checksum(task.id);
    updated.crc = crc.ok() ? *crc : 0;
    // Directory upsert cannot fail; the commit's status is what callers see.
    (void)service_->metadata().Update(task.id, updated, node_id_, dev_done,
                                      nullptr);
    out.version = updated.version;
  }
  out.done = dev_done;
  return out;
}

TaskOutcome NodeRuntime::ExecuteScore(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  bm_.SetScore(task.id, task.score);
  if (options_.enable_organizer && options_.organize_every > 0) {
    int n = score_updates_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.organize_every == 0) {
      sim::SimTime done = task.issue_time;
      bm_.Rebalance(task.issue_time, &done);
      out.done = done;
    }
  }
  return out;
}

StatusOr<storage::BlobLocation> NodeRuntime::SnapshotPage(
    const storage::BlobId& id, std::vector<std::uint8_t>* buf,
    sim::SimTime now, sim::SimTime* done) {
  // A commit changes the bytes before the directory CRC, so a copy is a
  // snapshot only when its CRC equals the CRC of the entry re-read after
  // it (VerifiedCopy's rule). A mismatch is a commit caught mid-flight:
  // back off and copy again, within a bound.
  constexpr int kAttempts = 16;
  constexpr int kMaxBackoffUs = 4096;
  for (int attempt = 0;; ++attempt) {
    MM_RETURN_IF_ERROR(bm_.GetInto(id, buf, now, done));
    MM_ASSIGN_OR_RETURN(storage::BlobLocation entry,
                        service_->metadata().Lookup(id, node_id_, *done,
                                                    nullptr));
    const std::uint32_t crc = Crc32(*buf);
    if (entry.crc == 0 || entry.crc == crc) {
      entry.crc = crc;
      return entry;
    }
    if (attempt + 1 == kAttempts) {
      return Unavailable("page " + id.ToString() +
                         " kept changing under its stage-out; left dirty");
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min(1 << attempt, kMaxBackoffUs)));
  }
}

TaskOutcome NodeRuntime::ExecuteStageOut(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  VectorMeta* meta = service_->FindVectorById(task.vector_id);
  if (meta == nullptr || meta->stager == nullptr) {
    out.status = FailedPrecondition("stage-out of volatile/unknown vector");
    return out;
  }
  out.status = service_->EnsureBackend(*meta);
  if (!out.status.ok()) return out;
  const std::uint64_t logical =
      meta->size_bytes.load(std::memory_order_relaxed);
  // Copy every page into its own pooled buffer; a run is written from
  // these buffers, never concatenated into a fresh one.
  std::vector<ckpt::JournalRecord> batch;
  batch.reserve(task.pages.size());
  sim::SimTime read_done = task.issue_time;
  for (std::uint64_t page : task.pages) {
    const storage::BlobId id{meta->vector_id, page};
    const std::uint64_t page_off = page * meta->page_bytes;
    if (page_off >= logical) continue;  // page past the logical end
    ckpt::JournalRecord rec;
    rec.payload = pool_.Acquire(meta->page_bytes);
    auto snap = SnapshotPage(id, &rec.payload, task.issue_time, &read_done);
    if (!snap.ok() || !snap->dirty) {
      // Not resident or no longer placed (nothing to persist), or already
      // staged by an earlier flush. A failed tier read or a page that kept
      // changing stays dirty, and the flush reports it.
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
    rec.key = meta->key;
    rec.payload.resize(std::min(meta->page_bytes, logical - page_off));
    batch.push_back(std::move(rec));
  }
  out.done = read_done;
  if (!batch.empty()) {
    Status st = JournaledBackendWrite(*meta, batch, read_done, &out.done);
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
  return out;
}

TaskOutcome NodeRuntime::ExecuteErase(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  (void)bm_.Erase(task.id);  // absent is fine
  return out;
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
  trace_->set_enabled(options_.telemetry.enabled &&
                      !options_.telemetry.trace_path.empty());
  // Flight recorder is independent of the trace switch: the small span
  // ring stays warm in every run so a crash can leave a postmortem.
  if (!options_.telemetry.flightrec_dir.empty()) {
    trace_->set_flight_capacity(
        static_cast<std::size_t>(options_.telemetry.flightrec_capacity));
  }
  reporter_ =
      std::make_unique<telemetry::EpochReporter>(options_.telemetry.report_path);
  // The checkpoint coordinator precedes the runtimes: workers consult the
  // per-node journals while executing, and startup recovery must heal the
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
      // Collect outside the lock: stage-out workers call FindVectorById,
      // which takes vectors_mu_.
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
  // Final telemetry drain, after every worker has quiesced: one closing
  // epoch (stamped at the last reported virtual time) and the Chrome-trace
  // dump.
  if (options_.telemetry.enabled) {
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
}

telemetry::ClusterSnapshot Service::TelemetrySnapshot() {
  // Refresh snapshot-time gauges first: tier occupancy and pool counters
  // are levels sampled from their owners, not events counted at the source.
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    telemetry::MetricsRegistry& reg = *metrics_[n];
    auto& bm = runtimes_[n]->buffer();
    for (std::size_t t = 0; t < bm.num_tiers(); ++t) {
      TierUsedGauge(reg, bm.tier(t).kind())
          ->Set(static_cast<std::int64_t>(bm.tier(t).used()));
    }
    PagePool& pool = runtimes_[n]->pool();
    reg.GetGauge("mm.pool.alloc_count")
        ->Set(static_cast<std::int64_t>(pool.allocations()));
    reg.GetGauge("mm.pool.reuse_count")
        ->Set(static_cast<std::int64_t>(pool.reuses()));
    reg.GetGauge("mm.pool.pooled_bytes")
        ->Set(static_cast<std::int64_t>(pool.pooled_bytes()));
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
  if (!options_.telemetry.enabled) return "";
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
  if (!options_.telemetry.enabled) return "";
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
  vectors_by_id_[meta->vector_id] = raw;
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
                     << " pages lost, starting recovery";
  for (const storage::BlobId& id : lost) {
    auto loc = metadata().Lookup(id, node, now, nullptr);
    if (!loc.ok()) continue;  // never registered; nothing to reconcile
    if (loc->node != node) {
      // Only a replica died here; the primary is intact elsewhere.
      (void)metadata().RemoveReplica(id, node, node, now, nullptr);
      continue;
    }
    if (loc->dirty) {
      // The resident copy of unstaged modifications went down with the
      // tier, but journaled writeback may have already made those bytes
      // durable (the redo record lands before the in-place write). A
      // journal record at or past the lost version means the backend can
      // be healed — re-apply it and fall through to the clean-primary
      // re-stage below instead of declaring data loss.
      if (!TryJournalRecover(node, id, *loc)) {
        // The only copy is gone. Record typed data loss; accesses surface
        // kDataLoss, not an abort.
        RecordDataLoss(id, node, now);
        // Idempotent drop of the lost page's directory entry; kNotFound on
        // a concurrent removal is fine.
        (void)metadata().Remove(id, node, now, nullptr);
        continue;
      }
    }
    // Clean primary: the backend still has the bytes. Drop the stale
    // mapping and eagerly re-stage so the working set recovers without
    // waiting for the next fault (volatile vectors re-read as zeros).
    (void)metadata().Remove(id, node, now, nullptr);
    VectorMeta* meta = FindVectorById(id.vector_id);
    if (meta == nullptr || meta->stager == nullptr) continue;
    (void)SubmitGetPage(*this, *meta, id, node, node, now, {});  // no waiter
  }
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
  for (VectorMeta* meta : vecs) {
    for (const storage::BlobId& id :
         metadata().BlobsOfVector(meta->vector_id)) {
      ++stats.pages_scanned;
      auto loc = metadata().Lookup(id, from_node, now, nullptr);
      if (!loc.ok()) continue;
      // A replica record pointing at the dead node only costs a remote
      // re-read; unregister it unconditionally (idempotent).
      (void)metadata().RemoveReplica(id, dead_node, from_node, now, nullptr);
      if (loc->node != dead_node) continue;
      if (loc->dirty) {
        // The primary copy of unstaged modifications died with the node.
        // Journaled writeback may have made those bytes durable before the
        // death; replaying the redo record heals the backend. Volatile
        // vectors have no backend or journal: their dirty pages are gone.
        if (meta->stager != nullptr && TryJournalRecover(dead_node, id, *loc)) {
          ++stats.journal_recovered;
        } else {
          RecordDataLoss(id, dead_node, now);
          ++stats.lost;
        }
      } else {
        ++stats.rehomed;
      }
      // Drop the stale mapping (and the dead node's resident bytes, so a
      // later unfencing experiment cannot resurrect them); survivors
      // re-stage from the backend lazily on next touch via the remapped
      // DefaultOwner.
      // Already-absent entries are fine: fencing is idempotent and the
      // page may never have been staged on the dead node.
      (void)runtime(dead_node).buffer().Erase(id);
      (void)metadata().Remove(id, from_node, now, nullptr);  // idempotent
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
  reg.GetCounter("mm.recovery.pages_scanned_count")->Inc(stats.pages_scanned);
  reg.GetCounter("mm.recovery.rehomed_count")->Inc(stats.rehomed);
  reg.GetCounter("mm.recovery.journal_recovered_count")
      ->Inc(stats.journal_recovered);
  reg.GetCounter("mm.recovery.data_loss_count")->Inc(stats.lost);
  MM_WARN("service") << "node " << dead_node << " fenced and re-homed: "
                     << stats.pages_scanned << " pages scanned, "
                     << stats.rehomed << " re-homed, "
                     << stats.journal_recovered << " journal-recovered, "
                     << stats.lost << " lost";
  return stats;
}

bool Service::TryJournalRecover(std::size_t node, const storage::BlobId& id,
                                const storage::BlobLocation& loc) {
  if (ckpt_ == nullptr || !ckpt_->journaling()) return false;
  ckpt::Journal* journal = ckpt_->journal(node);
  if (journal == nullptr) return false;
  auto rec = journal->Latest(id);
  if (!rec.ok() || rec->version < loc.version) return false;
  auto resolved = storage::StagerRegistry::Default().Resolve(rec->key);
  if (!resolved.ok()) return false;
  storage::Stager* stager = resolved->first;
  const auto& uri = resolved->second;
  if (!stager->Exists(uri)) {
    Status cs = stager->Create(uri, rec->offset + rec->payload.size());
    if (!cs.ok()) return false;
  }
  // Idempotent re-apply: the in-place write may have landed (fully or
  // partially) before the tier died; replaying the record converges the
  // backend to the journaled version either way.
  Status ws = stager->Write(uri, rec->offset, rec->payload.data(),
                            rec->payload.size());
  if (!ws.ok()) return false;
  metrics_[node]->GetCounter("mm.ckpt.journal_recovered_count")->Inc();
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

VectorMeta* Service::FindVectorById(std::uint64_t vector_id) {
  MutexLock lock(vectors_mu_);
  auto it = vectors_by_id_.find(vector_id);
  return it == vectors_by_id_.end() ? nullptr : it->second;
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
                                                      std::uint64_t* version,
                                                      bool read_intent) {
  telemetry::NodeSink sink = telemetry_sink(from_node);
  if (read_intent) {
    sim::SimTime fast_done = now;
    if (auto fast = TryReadPageOptimistic(meta, page, from_node, now,
                                          &fast_done, version)) {
      // A bare fault-cat span, like prefetch_wait: the critical-path
      // analyzer counts it as data-movement stall.
      if (fast_done > now) {
        sink.trace->Complete("opt_read", "fault", sink.node, 0, now,
                             fast_done);
      }
      Merge(fast_done, done);
      return std::move(*fast);
    }
  }
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
    auto local = CopyOrHeal(*this, from_node, id, from_node, meta.page_bytes,
                            now, &local_done);
    if (local.status().code() != StatusCode::kNotFound) {
      Merge(local_done, done);
      if (local.ok() && version != nullptr) {
        *version = src.loc ? src.loc->version : 0;
      }
      return local;
    }
    // The copy raced an eviction or was dropped: route the fault.
    t = now;
    src = ResolveSource(*this, meta, id, from_node, now, &t);
  }

  // Routed fault = a service-level page fault: count it here (the local
  // copy above is the scache's business), and span the whole fault —
  // metadata lookup, task execution, and transfer — on success.
  sink.metrics->GetCounter("mm.service.fault_count")->Inc();
  const std::size_t owner = src.node;
  // Concurrent faults for the same blob on this node share one fetch.
  InflightKey key{from_node, id};
  std::shared_future<TaskOutcome> fetch;
  bool leader = false;
  // Flow identity of this fault, minted by the leader only: one connected
  // origin → task → stager chain per shared fetch (followers record plain
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
      fetch = SubmitGetPage(*this, meta, id, owner, from_node, t, fault_ctx);
      inflight_[key] = fetch;
    }
  }
  TaskOutcome outcome = fetch.get();
  if (leader) {
    MutexLock lock(inflight_mu_);
    inflight_.erase(key);
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
  // origin → get_page task on the owner → stager, one connected arrow
  // chain across nodes. Closed on the error path too — the worker already
  // recorded its 't' hop, and a dangling flow would fail trace validation.
  sink.trace->CompleteFlow("page_fault", "fault", sink.node, 0, now, complete,
                           fault_ctx, 's');
  Merge(complete, done);
  if (!outcome.status.ok()) return outcome.status;
  return std::move(outcome.data);
}

std::optional<std::vector<std::uint8_t>> Service::TryReadPageOptimistic(
    VectorMeta& meta, std::uint64_t page, std::size_t from_node,
    sim::SimTime now, sim::SimTime* done, std::uint64_t* version) {
  if (!options_.enable_optimistic_reads ||
      !AllowsOptimisticReads(meta.mode.load(std::memory_order_relaxed))) {
    return std::nullopt;
  }
  storage::BlobId id{meta.vector_id, page};
  telemetry::NodeSink sink = telemetry_sink(from_node);
  PagePool& pool = runtime(from_node).pool();
  std::vector<std::uint8_t> bytes;
  PoolReturn pool_guard(pool, bytes);
  sim::SimTime t = now;
  constexpr int kMaxAttempts = 3;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // v1: sample the directory and take the source the §6 rule blesses.
    // Unplaced pages have no authoritative bytes anywhere yet — only the
    // routed fault may materialize them (or tell their typed data loss) —
    // and fenced sources decline.
    const ReadSource src = ResolveSource(*this, meta, id, from_node, t, &t);
    if (!src.loc || !src.has_copy) break;
    // Copy the bytes straight out of the source scache on this thread —
    // the BufferManager is internally synchronized; no worker queue, no
    // promise, no task allocation.
    if (bytes.empty()) bytes = pool.Acquire(meta.page_bytes);
    sim::SimTime copy_done = t;
    std::optional<storage::BlobLocation> v2;
    Status st = VerifiedCopy(*this, src.node, id, from_node, &bytes, t,
                             &copy_done, &t, &v2);
    // The copy failed (raced an eviction, tier error): the routed fault
    // re-stages.
    if (!st.ok() && st.code() != StatusCode::kDataLoss) break;
    // v2, the entry re-read after the copy: the copy is coherent only if no
    // writer committed meanwhile. This is the optimistic guard's validate
    // step at directory granularity; a changed version or moved primary
    // means the copy may be torn.
    if (!v2 || v2->node != src.loc->node || v2->version != src.loc->version) {
      runtime(from_node).CountReadpathRetry();
      continue;
    }
    // Corruption healing (replica drop, typed data loss) lives on the
    // routed fault; the fast path just declines.
    if (!st.ok()) break;
    if (src.node != from_node) {
      t = cluster().network().Transfer(t, src.node, from_node, bytes.size())
              .delivered;
    }
    if (version != nullptr) *version = v2->version;
    runtime(from_node).CountReadpathHit();
    sink.trace->Instant("readpath_hit", "readpath", sink.node, 0, t);
    Merge(t, done);
    return bytes;  // implicit move detaches from pool_guard (capacity 0 after)
  }
  // An eligible attempt declined: the caller takes the routed fault, and
  // hit + fallback counts cover every attempted read (DESIGN.md §14).
  runtime(from_node).CountReadpathFallback();
  sink.trace->Instant("readpath_fallback", "readpath", sink.node, 0, now);
  return std::nullopt;
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
  auto tier = runtime(from_node).buffer().PutScored(id, std::move(copy),
                                                    /*score=*/1.0f, now,
                                                    &put_done);
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

PendingFetch Service::ReadPageAsync(VectorMeta& meta, std::uint64_t page,
                                   std::size_t from_node, sim::SimTime now) {
  storage::BlobId id{meta.vector_id, page};
  std::size_t owner =
      ResolveSource(*this, meta, id, from_node, now, nullptr).node;
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sink.trace->Instant("prefetch_issue", "prefetch", sink.node, 0, now);
  return {SubmitGetPage(*this, meta, id, owner, from_node, now, {}), owner};
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

std::shared_future<TaskOutcome> Service::WriteRegion(
    VectorMeta& meta, std::uint64_t page, std::uint64_t offset,
    std::vector<std::uint8_t> bytes, std::size_t from_node, sim::SimTime now) {
  storage::BlobId id{meta.vector_id, page};
  // Writes are routed to the page's owner. Unplaced pages go to the blob's
  // deterministic home node so concurrent first-writes serialize on one
  // worker (two producers choosing themselves would fork the page). The
  // Data Organizer can migrate the page toward its writer afterwards
  // (Fig. 3's locality is restored by score locality hints). The lookup is
  // part of the async path, so its cost lands on the network model, not on
  // the caller's clock.
  std::size_t owner = DefaultOwner(meta, id);
  auto loc = metadata().Lookup(id, from_node, now, nullptr);
  if (loc.ok()) owner = loc->node;

  MemoryTask task;
  task.kind = MemoryTask::Kind::kWritePartial;
  task.vector_id = meta.vector_id;
  task.id = id;
  task.offset = offset;
  task.data = std::move(bytes);
  task.from_node = from_node;
  task.promise = std::make_shared<std::promise<TaskOutcome>>();
  // Async flow origin: the caller does not wait for the commit, so the
  // origin span covers only issue (+ the cross-node transfer). The worker's
  // write_partial span is the terminal hop and closes the flow.
  telemetry::TraceContext wctx =
      telemetry::TraceRecorder::NewContext(static_cast<int>(from_node));
  task.tctx = wctx;
  task.trace_terminal = true;
  if (owner == from_node) {
    task.issue_time = now;
  } else {
    auto xfer =
        cluster().network().Transfer(now, from_node, owner, task.data.size());
    task.issue_time = xfer.delivered;
  }
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sink.trace->CompleteFlow("write_commit", "commit", sink.node, 0, now,
                           task.issue_time, wctx, 'a');
  auto future = task.promise->get_future().share();
  // A shutdown rejection still fulfills the promise (error via the future).
  (void)runtime(owner).Submit(std::move(task));
  return future;
}

void Service::SubmitScore(VectorMeta& meta, std::uint64_t page, float score,
                          std::size_t from_node, sim::SimTime now) {
  if (!options_.enable_organizer) return;
  storage::BlobId id{meta.vector_id, page};
  auto loc = metadata().Lookup(id, from_node, now, nullptr);
  if (!loc.ok()) return;  // nothing placed yet; nothing to organize
  MemoryTask task;
  task.kind = MemoryTask::Kind::kScore;
  task.vector_id = meta.vector_id;
  task.id = id;
  task.score = score;
  task.from_node = from_node;
  task.issue_time = now;
  // Fire-and-forget score hint: a shutdown rejection loses only a hint.
  (void)runtime(loc->node).Submit(std::move(task));
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
  std::vector<std::shared_future<TaskOutcome>> futures;
  // One flow for the whole flush: the sync "flush" origin below fans out to
  // every stage_out task span ('t' hops) across the owning nodes.
  telemetry::TraceContext flush_ctx =
      telemetry::TraceRecorder::NewContext(static_cast<int>(from_node));
  for (auto& [owner, pages] : batches) {
    std::sort(pages.begin(), pages.end());
    MemoryTask task;
    task.kind = MemoryTask::Kind::kStageOut;
    task.vector_id = meta.vector_id;
    // Every batch of a vector routes by page 0's digest, so concurrent
    // flushes of one vector serialize on the owner's queue: a later batch
    // never journals an older snapshot of a page than an earlier one.
    task.id = {meta.vector_id, 0};
    task.pages = std::move(pages);
    task.from_node = from_node;
    task.issue_time = now;
    task.tctx = flush_ctx;
    task.promise = std::make_shared<std::promise<TaskOutcome>>();
    futures.push_back(task.promise->get_future().share());
    // A shutdown rejection still fulfills the promise collected above.
    (void)runtime(owner).Submit(std::move(task));
  }
  Status first_error;
  sim::SimTime flush_end = now;
  for (auto& f : futures) {
    TaskOutcome outcome = f.get();
    Merge(outcome.done, done);
    Merge(outcome.done, &flush_end);
    if (written != nullptr) {
      written->pages += outcome.pages_written;
      written->bytes += outcome.bytes_written;
    }
    if (!outcome.status.ok() && first_error.ok()) {
      first_error = outcome.status;
    }
  }
  if (!futures.empty()) {
    telemetry::NodeSink sink = telemetry_sink(from_node);
    // `done == nullptr` is the FlushAsync path: the caller's clock never
    // advances to flush_end, so the flow must be async ('a') or the
    // critical-path analyzer would charge a stall nobody paid.
    sink.trace->CompleteFlow("flush", "flush", sink.node, 0, now, flush_end,
                             flush_ctx, done != nullptr ? 's' : 'a');
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
    telemetry::Counter* invalidations =
        sink.metrics->GetCounter("mm.coherence.invalidate_count");
    for (const auto& id : metadata().BlobsOfVector(meta.vector_id)) {
      sim::SimTime inval_done = now;
      auto dropped =
          metadata().InvalidateReplicas(id, from_node, now, &inval_done);
      Merge(inval_done, done);
      if (!dropped.empty()) {
        invalidations->Inc(dropped.size());
        // A real span (not an instant): the critical-path analyzer charges
        // coherence stalls by span duration.
        sink.trace->Complete("invalidate", "coherence", sink.node, 0, now,
                             inval_done);
      }
      for (std::size_t node : dropped) {
        MemoryTask task;
        task.kind = MemoryTask::Kind::kErase;
        task.vector_id = meta.vector_id;
        task.id = id;
        task.from_node = from_node;
        task.issue_time = inval_done;
        // Fire-and-forget replica erase; stale bytes are re-validated by
        // version on the next acquire anyway.
        (void)runtime(node).Submit(std::move(task));
      }
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
