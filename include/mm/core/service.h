// The MegaMmap service: per-node runtimes (each runs its entry points one
// at a time, on the calling thread), the distributed metadata manager, the
// vector registry, and the scache client API that mm::Vector uses. One
// Service instance exists per simulated job, shared by all ranks (paper
// Fig. 2 has application processes submit MemoryTasks to a runtime through
// queues; here the rank thread calls the runtime's entry point itself).
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <map>
#include <span>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unordered_set>

#include "mm/ckpt/coordinator.h"
#include "mm/comm/dlock.h"
#include "mm/core/coherence.h"
#include "mm/core/memory_task.h"
#include "mm/core/options.h"
#include "mm/sim/cluster.h"
#include "mm/sim/fault.h"
#include "mm/storage/buffer_manager.h"
#include "mm/storage/metadata.h"
#include "mm/storage/stager.h"
#include "mm/telemetry/metrics.h"
#include "mm/telemetry/report.h"
#include "mm/telemetry/sink.h"
#include "mm/telemetry/trace.h"
#include "mm/util/mutex.h"

namespace mm::core {

class Service;
struct PendingFetch;  // mm/core/pcache.h
struct ReadSource;    // src/core/service.cc: stage 1 of the page-read pipeline

/// Registered state of one shared vector (connected to by key).
struct VectorMeta {
  std::uint64_t vector_id = 0;
  std::string key;
  Uri uri;                             // parsed key
  storage::Stager* stager = nullptr;   // null for volatile vectors
  std::size_t elem_size = 0;
  std::uint64_t page_bytes = 0;        // rounded to whole elements
  std::atomic<std::uint64_t> size_bytes{0};  // logical size; appends grow it
  std::atomic<CoherenceMode> mode{CoherenceMode::kReadWriteGlobal};
  VectorOptions options;
  std::atomic<bool> destroyed{false};
  Mutex backend_mu;                    // serializes backend object creation
  bool backend_ready MM_GUARDED_BY(backend_mu) = false;

  /// PGAS placement hint (set by Vector::Pgas): maps pages to the node of
  /// the rank that owns them, giving unplaced pages a deterministic AND
  /// local first-touch owner (Fig. 3 locality without split-brain races).
  struct PgasHint {
    std::uint64_t n_elems = 0;
    int nprocs = 0;
    int ranks_per_node = 0;
  };
  Mutex hint_mu;
  std::optional<PgasHint> pgas_hint MM_GUARDED_BY(hint_mu);

  /// Write-back horizon: when the last in-place write a flush of this
  /// vector left behind its journal ends on the PFS (0 before any).
  /// Monotone. A backend read of the vector starts no earlier, and a
  /// checkpoint publishes no earlier.
  std::atomic<sim::SimTime> writeback_horizon{0.0};

  void RaiseWritebackHorizon(sim::SimTime t) {
    sim::SimTime cur = writeback_horizon.load(std::memory_order_relaxed);
    while (cur < t && !writeback_horizon.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t num_elements() const {
    return size_bytes.load(std::memory_order_relaxed) / elem_size;
  }
  std::uint64_t elems_per_page() const { return page_bytes / elem_size; }
  std::uint64_t num_pages() const {
    std::uint64_t sz = size_bytes.load(std::memory_order_relaxed);
    return (sz + page_bytes - 1) / page_bytes;
  }
};

/// One node's runtime. It owns no thread: each entry point below is one
/// of the paper's MemoryTasks (§III-B), run on the calling thread under the
/// node's execution mutex, so every call on the node runs alone and in call
/// order. That gives §III-B's same-page ordering for every page and block,
/// stage-ins against commits included. The paper's per-node worker pool is
/// not reproduced (EXPERIMENTS.md, "Inline tasks"): a call carries its own
/// issue time and a worker has no clock, so workers would add wall-clock
/// interleavings and no virtual-time behaviour.
///
/// Every entry point is thread-safe, starts `task_dispatch_s` after its
/// `issued` time, counts into `mm.task.executed_count` and
/// `mm.task.<name>_ns`, and records a `<name>` span, linked to the flow
/// `tctx` when given. After Shutdown it does none of that and returns
/// kFailedPrecondition at `issued`. No step calls an entry point: one that
/// ran inside another on one thread could wait on a mutex the thread holds.
/// A copy a step finds lost is dropped (Service::DropCopy) and staged back
/// in on its next touch.
class NodeRuntime {
 public:
  NodeRuntime(Service* service, std::size_t node_id,
              const ServiceOptions& options,
              const std::vector<storage::TierGrant>& grants);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// `get_page`: reads the run of pages [first, first + n) of `meta`.
  /// Re-resolves each page's source, stages the run in with one backend
  /// read while every page is still unplaced, else serves page by page
  /// (ServePage). Staged-in pages are cached at `score`, scored for
  /// `from_node`. Returns one outcome per page. A `placement_only` run
  /// (Service::StageAhead) leaves its staged bytes in the scache, so its
  /// outcomes carry a status and a `done` time but no data.
  std::vector<TaskOutcome> GetPages(VectorMeta& meta, std::uint64_t first,
                                    std::uint64_t n, std::size_t from_node,
                                    sim::SimTime issued,
                                    telemetry::TraceContext tctx,
                                    float score = 1.0f,
                                    bool placement_only = false);

  /// `write_partial`: commits `bytes` at `offset` of `page` (the
  /// copy-on-write commit of a dirty region) and ends the async flow `tctx`
  /// that Service::WriteRegion opened. The payload goes back to the pool.
  TaskOutcome WritePartial(VectorMeta& meta, std::uint64_t page,
                           std::uint64_t offset,
                           std::vector<std::uint8_t> bytes,
                           std::size_t from_node, sim::SimTime issued,
                           telemetry::TraceContext tctx);

  /// `score`: sets the Data Organizer's importance score of `id`, and
  /// rebalances the tiers every `organize_every` scores. Fire-and-forget:
  /// a rejection loses only a hint.
  void Score(const storage::BlobId& id, float score, sim::SimTime issued);

  /// `stage_out`: persists `pages` of `meta` (this owner's dirty pages,
  /// ascending) as one journaled group commit, part of the flush flow
  /// `tctx`. The outcome counts the pages and bytes written. With a
  /// journal it ends when the batch is durable and hands the in-place
  /// runs' PFS charges back in `writeback`; their bytes are written.
  TaskOutcome StageOut(VectorMeta& meta,
                       const std::vector<std::uint64_t>& pages,
                       sim::SimTime issued, telemetry::TraceContext tctx);

  /// `erase`: drops `id` from this node's scache (absent is fine).
  void Erase(const storage::BlobId& id, sim::SimTime issued);

  storage::BufferManager& buffer() { return bm_; }

  /// Per-node recycled page-buffer pool: GetPages/WritePartial/StageOut
  /// payloads and evicted pcache frames draw from (and return to) it
  /// instead of allocating fresh vectors on every call.
  PagePool& pool() { return pool_; }

  /// Rejects every later call, once the one running now (if any) ends.
  void Shutdown();

 private:
  /// One entry point's run: its dispatch charge, count, histogram, span and
  /// payload recycling (service.cc).
  class TaskScope;

  /// WritePartial's commit, started at `now`.
  TaskOutcome CommitPartial(VectorMeta& meta, const storage::BlobId& id,
                            std::uint64_t offset,
                            const std::vector<std::uint8_t>& bytes,
                            std::size_t from_node, sim::SimTime now);

  /// One page of a GetPages run from `src`, started at `now`: this node's
  /// copy, else served through from the recorded owner, else staged in (or
  /// zero-filled) alone and cached as GetPages says.
  TaskOutcome ServePage(VectorMeta& meta, std::uint64_t page,
                        const ReadSource& src, sim::SimTime now,
                        std::size_t from_node, float score,
                        bool placement_only);

  /// Loads pages [first, first + outs.size()) into one pooled buffer each,
  /// zero-filled past what the backend holds. The pages the backend holds
  /// are one BackendRead; each out they cover gets its status and done.
  void StageInOrZero(VectorMeta& meta, std::uint64_t first,
                     std::span<TaskOutcome> outs, sim::SimTime now);

  /// Caches a staged-in page in this node's scache at `score` and records
  /// its directory entry under `stamp`, scored for `from_node` (sets
  /// out->version, out->crc and out->done). `stamp.crc` is the caller's CRC
  /// of out->data, so the staged bytes are checksummed once. A full scache
  /// is not an error for reads: the page is served uncached. A
  /// `placement_only` page's bytes move into the cache, leaving out->data
  /// empty.
  void CacheStagedPage(const storage::BlobId& id,
                       const storage::BlobStamp& stamp, std::size_t from_node,
                       float score, bool placement_only, TaskOutcome* out);

  /// Reads `size` backend bytes from `offset` as one request, each page
  /// straight into its own buffer (pages[i] gets the bytes from offset + i
  /// * page_bytes on): one fault decision and one PFS charge of `size` per
  /// attempt, through the fault injector and retry policy.
  Status BackendRead(VectorMeta& meta, std::uint64_t offset,
                     std::uint64_t size,
                     std::span<std::vector<std::uint8_t>* const> pages,
                     sim::SimTime now, sim::SimTime* done);
  /// Writes one contiguous run of pages in place, each from its own
  /// buffer: one fault decision per attempt, and one PFS charge of the
  /// run's bytes for the attempt that succeeds. With `writeback`, that
  /// charge is appended there instead of made, and a success leaves
  /// `*done` alone (failed attempts still stall the PFS inline).
  Status BackendWrite(VectorMeta& meta,
                      std::span<const ckpt::JournalRecord> run,
                      sim::SimTime now, sim::SimTime* done,
                      std::vector<WritebackCharge>* writeback = nullptr);

  /// Crash-consistent group commit (DESIGN.md §12): appends the redo
  /// records of `batch` (ascending offsets; each carries its page's
  /// committed version and full-page CRC) to this node's journal as one
  /// batch charged as one PFS write, then — once they are durable — writes
  /// each contiguous run in place with one BackendWrite. Honors the armed
  /// crash points. Without journaling only the in-place writes run, and
  /// they are the durability. With a journal and `writeback`, the runs'
  /// PFS charges go to `writeback` and `*done` is the journal's
  /// durability.
  Status JournaledBackendWrite(
      VectorMeta& meta, std::span<const ckpt::JournalRecord> batch,
      sim::SimTime now, sim::SimTime* done,
      std::vector<WritebackCharge>* writeback = nullptr);

  /// Copies resident page `id` (`bytes` long) into a pooled *buf under
  /// the healing readers' policy and returns its directory entry with the
  /// version and CRC of the stamp the copy was taken under: a committed
  /// state by construction. kNotFound: nothing to persist; kDataLoss: the
  /// copy failed its CRC check.
  StatusOr<storage::BlobLocation> SnapshotPage(const storage::BlobId& id,
                                               std::uint64_t bytes,
                                               std::vector<std::uint8_t>* buf,
                                               sim::SimTime now,
                                               sim::SimTime* done);

  Service* service_;
  std::size_t node_id_;
  const ServiceOptions& options_;
  // Telemetry sink and cached metric handles (resolved once; the hot paths
  // only touch relaxed atomics). tel_ must precede bm_: the buffer manager
  // is constructed with this node's sink.
  telemetry::NodeSink tel_;
  telemetry::Counter* task_executed_;          // mm.task.executed_count
  telemetry::Counter* stager_read_bytes_;      // mm.stager.read_bytes
  telemetry::Counter* stager_read_count_;      // mm.stager.read_count
  telemetry::Counter* stager_write_bytes_;     // mm.stager.write_bytes
  telemetry::Counter* stager_retries_;         // mm.stager.retries_count
  telemetry::Histogram* get_page_ns_;          // mm.task.get_page_ns
  telemetry::Histogram* write_partial_ns_;     // mm.task.write_partial_ns
  telemetry::Histogram* score_ns_;             // mm.task.score_ns
  telemetry::Histogram* stage_out_ns_;         // mm.task.stage_out_ns
  telemetry::Histogram* erase_ns_;             // mm.task.erase_ns
  telemetry::Counter* ckpt_journal_bytes_;     // mm.ckpt.journal_bytes
  storage::BufferManager bm_;
  PagePool pool_;
  // Held for the whole of one entry point's step, so everything a step
  // takes comes after it (MML101).
  Mutex exec_mu_ MM_ACQUIRED_BEFORE(
      Service::vectors_mu_, Service::lost_mu_, VectorMeta::backend_mu,
      VectorMeta::hint_mu, storage::MetadataManager::Shard::mu,
      storage::BufferManager::mu_, storage::TierStore::mu_,
      ckpt::Journal::mu_);
  bool shut_down_ MM_GUARDED_BY(exec_mu_) = false;
  std::atomic<int> score_updates_{0};
};

/// What one FlushVector persisted.
struct FlushCounts {
  std::uint64_t pages = 0;
  std::uint64_t bytes = 0;  // payload bytes, trimmed to the logical extent
};

class Service {
 public:
  /// Builds per-node runtimes over `cluster` (which must outlive the
  /// service). The tier grants apply to every node.
  Service(sim::Cluster* cluster, ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  sim::Cluster& cluster() { return *cluster_; }
  const ServiceOptions& options() const { return options_; }
  storage::MetadataManager& metadata() { return *metadata_; }
  NodeRuntime& runtime(std::size_t node) { return *runtimes_[node]; }
  std::size_t num_nodes() const { return runtimes_.size(); }

  /// The fault oracle shared by every tier store and stager call of this
  /// service. Always present (a default-constructed injector never faults);
  /// tests use it to trigger failures (FailTier) and read stats.
  sim::FaultInjector& fault_injector() { return *injector_; }

  // ---- telemetry ----

  /// This node's metric/trace sink. Registries live as long as the service;
  /// instrumented components cache the returned pointers.
  telemetry::NodeSink telemetry_sink(std::size_t node) {
    return {metrics_[node].get(), trace_.get(), static_cast<int>(node)};
  }
  telemetry::MetricsRegistry& metrics(std::size_t node) {
    return *metrics_[node];
  }
  telemetry::TraceRecorder& trace() { return *trace_; }

  /// Aggregated view of every node's registry. Snapshot-time gauges (tier
  /// occupancy, pool counters) are refreshed before reading.
  telemetry::ClusterSnapshot TelemetrySnapshot();

  /// Emits one epoch report line (JSON deltas vs the previous epoch) and
  /// returns it; appends to `telemetry.report_path` when configured.
  /// Returns "" when telemetry is disabled.
  std::string EpochReport(double now_s);

  /// EpochReport, rate-limited by `telemetry.report_interval_s`. Returns ""
  /// when the interval has not elapsed (or the interval is unset).
  std::string MaybeEpochReport(double now_s);

  /// Bridges the per-rank virtual-clock wall accounting (typically
  /// comm::World::CritpathTotals) into mm.critpath.compute_ns/stall_ns at
  /// every epoch report, so the per-epoch critpath object can check the
  /// attribution against measured wall time. The source returns
  /// cumulative {compute_ns, stall_ns}; optional — without it the epoch
  /// critpath object carries attribution buckets only.
  void SetCritpathWallSource(
      std::function<std::pair<std::uint64_t, std::uint64_t>()> source);

  /// Crash flight recorder (DESIGN.md §11): writes
  /// `<telemetry.flightrec_dir>/flightrec_<node>.json` with the last spans
  /// from the always-on flight ring plus this node's metrics snapshot.
  /// No-op when flightrec_dir is unset. Safe from crash paths and the
  /// World death observer: touches only the trace and metrics leaf locks.
  void DumpFlightRecord(std::size_t node, std::string_view reason,
                        double now_s);

  // ---- fault recovery ----

  /// What DropCopy made of a lost copy.
  enum class DropOutcome {
    kUnplaced,  // the page has no directory entry: nothing to reconcile
    kReplica,   // a replica: its record is unregistered, the primary stays
    kClean,     // a clean primary: the entry is dropped
    kHealed,    // a dirty primary re-applied from its redo record, dropped
    kLost,      // a dirty primary with no durable copy: recorded, dropped
  };

  /// The one loss rule (DESIGN.md §9): `node` no longer holds a good copy
  /// of `id`. Erases the node's bytes (best effort) and unregisters a
  /// replica. A dirty primary is healed from `node`'s redo journal when a
  /// record at or past its version is durable (TryJournalRecover), else
  /// recorded as data loss, before its entry goes, so a racing fault never
  /// stages in stale backend bytes. Then the primary's entry is dropped,
  /// and the next touch stages the page in through the one page-read path.
  /// Tier death, node death and a failed CRC check all decide a lost copy's
  /// fate here. The lookup is uncharged; the directory update is charged to
  /// *done (nullable), attributed to `from_node`.
  DropOutcome DropCopy(std::size_t node, const storage::BlobId& id,
                       std::size_t from_node, sim::SimTime now,
                       sim::SimTime* done);

  /// Tier-failure recovery, invoked by a node's BufferManager after a tier
  /// permanently fails: each lost copy goes through DropCopy, so clean
  /// primaries re-stage lazily on their next touch and unhealable dirty
  /// ones surface as kDataLoss.
  void OnTierFailure(std::size_t node, sim::TierKind tier,
                     const std::vector<storage::BlobId>& lost,
                     sim::SimTime now);

  // ---- node death recovery (DESIGN.md §13) ----

  /// Outcome of re-homing one dead node's DSM pages.
  struct RecoveryStats {
    std::uint64_t pages_scanned = 0;
    /// Clean primaries whose directory entry was dropped; they re-stage
    /// lazily from the backend on next touch.
    std::uint64_t rehomed = 0;
    /// Dirty primaries healed by replaying the dead node's redo journal.
    std::uint64_t journal_recovered = 0;
    /// Dirty primaries with no durable copy anywhere (kDataLoss on access).
    std::uint64_t lost = 0;
  };

  /// Fences `node` out of page placement: DefaultOwner and ResolveSource
  /// stop routing reads/writes at it. Sticky for the service's lifetime.
  void FenceNode(std::size_t node);
  bool NodeFenced(std::size_t node) const {
    return fenced_[node].load(std::memory_order_acquire);
  }
  /// `node` when unfenced, else the next live node in ring order (placement
  /// remap around dead nodes).
  std::size_t Unfenced(std::size_t node) const;

  /// Survivor-side recovery of a dead node's pages (RecoveryPolicy::kRehome):
  /// fences the node, then hands each page of every registered vector to
  /// DropCopy as a copy lost on the dead node and counts the outcomes. Call
  /// from the recovery barrier's serial section (all survivors parked),
  /// attributed to `from_node` for metadata-latency and metrics purposes.
  RecoveryStats RecoverDeadNode(std::size_t dead_node, std::size_t from_node,
                                sim::SimTime now);

  /// Accumulated stats of every RecoverDeadNode call so far (the recovery
  /// leader runs it in a barrier serial section; followers read this after
  /// release — ckpt::CollectiveRecover's result channel).
  RecoveryStats last_recovery() const {
    MutexLock lock(lost_mu_);
    return last_recovery_;
  }

  /// Data-loss registry: pages whose unstaged modifications are gone.
  /// `node` attributes the loss for the flight-recorder postmortem dumped
  /// on first registration of each lost page.
  void RecordDataLoss(const storage::BlobId& id, std::size_t node,
                      sim::SimTime now);
  bool IsDataLost(const storage::BlobId& id) const;
  void ClearDataLoss(const storage::BlobId& id);
  std::size_t data_loss_count() const;

  /// Version an unplaced page is staged in or first committed from: the
  /// version of its primary when DropCopy last dropped it, else 0. A page
  /// that comes back resumes its version, so a pcache frame still holding
  /// its pre-drop bytes never matches a later commit's version.
  std::uint64_t RestageVersion(const storage::BlobId& id) const;

  // ---- checkpoint / restore (mm::ckpt, DESIGN.md §12) ----

  /// Checkpoint subsystem state: per-node redo journals, epoch counter, the
  /// collective's leader→followers result channel. Always present;
  /// disabled (no journals) unless `ckpt.dir` is configured.
  ckpt::Coordinator& checkpointer() { return *ckpt_; }

  /// This node's redo journal; nullptr when checkpointing is disabled.
  ckpt::Journal* journal(std::size_t node) { return ckpt_->journal(node); }

  /// Coordinated incremental epoch checkpoint (single-rank form; ranks of a
  /// job use ckpt::CollectiveCheckpoint, which wraps this in a barrier
  /// serial section). Stages out only pages dirtied since the previous
  /// epoch (journaled; every runtime call made before this one has run), and
  /// atomically publishes the `<tag>.mmck` manifest via temp + rename.
  /// Defined in src/ckpt/service_ckpt.cc.
  StatusOr<ckpt::CheckpointStats> Checkpoint(const std::string& tag,
                                             std::size_t from_node,
                                             sim::SimTime now,
                                             sim::SimTime* done);

  /// Rebuilds vectors and the metadata directory from the manifest of
  /// `tag`, overlaying any newer durable journal records; page contents
  /// fault back in lazily on first touch (CRC-verified against the
  /// restored directory entries). Idempotent; rerunnable after a crash
  /// mid-restore. Defined in src/ckpt/service_ckpt.cc.
  Status Restore(const std::string& tag, std::size_t from_node,
                 sim::SimTime now, sim::SimTime* done);

  /// Connects to (or creates) a shared vector. All processes using the same
  /// key share the object. For nonvolatile vectors whose backend object
  /// exists, the size is taken from the backend; otherwise `initial_elems`
  /// sets it. Idempotent and thread-safe.
  StatusOr<VectorMeta*> RegisterVector(const std::string& key,
                                       std::size_t elem_size,
                                       const VectorOptions& options,
                                       std::uint64_t initial_elems = 0);

  /// Looks up a registered vector by key (nullptr if unknown).
  VectorMeta* FindVector(const std::string& key);

  /// Connects to (or creates) a named distributed lock homed on
  /// `home_node`. All ranks requesting the same key get the SAME lock
  /// object — the real mutex inside it is what makes cross-rank critical
  /// sections genuinely exclusive (mm::BTree's SMO lease). Idempotent and
  /// thread-safe; `home_node` must agree across callers of one key.
  comm::DistributedLock& GetDistributedLock(const std::string& key,
                                            std::size_t home_node);

  /// Lock wait (DistributedLock::wait) summed over the named locks.
  sim::ChannelWait lease_wait() const;

  /// Registers the PGAS partition of a vector (from Vector::Pgas). All
  /// ranks must pass identical values.
  void SetPgasHint(VectorMeta& meta, VectorMeta::PgasHint hint);

  /// Deterministic owner node for an unplaced page: the PGAS-hinted node
  /// when available, otherwise the blob's home node.
  std::size_t DefaultOwner(VectorMeta& meta, const storage::BlobId& id);

  /// Completes a routed page read that `owner` served to `from_node`:
  /// charges the owner→reader transfer when remote and, under read-only
  /// replication (unless `replicate` is off), caches the page in the
  /// reader's scache partition as a registered replica (Fig. 3). Returns
  /// the delivery time. The fault and prefetch completion paths end here.
  sim::SimTime DeliverPage(VectorMeta& meta, std::uint64_t page,
                           std::size_t owner, std::size_t from_node,
                           const TaskOutcome& outcome, bool replicate = true);

  // ---- scache client API (called from rank threads) ----

  /// Synchronous page fault: fetches the whole page. Charges metadata
  /// lookup, remote transfer (if the owner is another node), device time,
  /// and stage-in as applicable. A valid copy in this node's scache is
  /// served on the calling thread; anything else is a routed GetPages,
  /// shared by concurrent faults for the page on this node, whose delivery
  /// replicates under read-only-global coherence. `*done` receives the
  /// simulated completion.
  StatusOr<std::vector<std::uint8_t>> ReadPage(VectorMeta& meta,
                                               std::uint64_t page,
                                               std::size_t from_node,
                                               sim::SimTime now,
                                               sim::SimTime* done,
                                               std::uint64_t* version = nullptr);

  /// Fetches pages [first, first + n) for the prefetch path, asynchronous
  /// in virtual time only; one PendingFetch per page, in order. The caller
  /// charges itself nothing now; when it adopts a page it hands the
  /// outcome to DeliverPage.
  /// Consecutive pages of one stage-in block (RunPages) that are unplaced
  /// and share an owner form one GetPages run that stages them in with one
  /// backend read. Every other page is a run of one.
  std::vector<PendingFetch> ReadPagesAsync(VectorMeta& meta,
                                           std::uint64_t first,
                                           std::uint64_t n,
                                           std::size_t from_node,
                                           sim::SimTime now);

  /// Stage-ahead, the Data Organizer's placement of scored pages the
  /// prefetcher sees past its window (DESIGN.md §6): of pages
  /// [first, first + n), those still unplaced and inside the backend's
  /// extent are staged in from the backend and cached at `score`, without
  /// returning their bytes. Each run of them within one stage-in block and
  /// owner is one placement-only GetPages run. Returns one outcome per
  /// submitted page; its `done` is when the page landed in the scache.
  std::vector<std::pair<std::uint64_t, TaskOutcome>>
  StageAhead(VectorMeta& meta, std::uint64_t first, std::uint64_t n,
             float score, std::size_t from_node, sim::SimTime now);

  /// Pages per stage-in block of `meta`: the PFS stripe over the page size
  /// (16 for 64 KiB pages on 1 MiB stripes). 1 for a volatile vector, an
  /// unstriped PFS, or pages of at least one stripe. Blocks start at page
  /// multiples of it.
  std::uint64_t RunPages(const VectorMeta& meta) const;

  /// Idle estimate of reading one page from wherever it currently lives
  /// (prefetcher input). Unplaced pages are assumed to cost a PFS stage-in.
  double EstimateReadSeconds(VectorMeta& meta, std::uint64_t page,
                             std::uint64_t bytes);

  /// Dirty-region commit (copy-on-write eviction/TxEnd path), asynchronous
  /// in virtual time: the caller charges itself only the copy cost, and the
  /// outcome's `done` is when the commit landed.
  TaskOutcome WriteRegion(VectorMeta& meta, std::uint64_t page,
                          std::uint64_t offset, std::vector<std::uint8_t> bytes,
                          std::size_t from_node, sim::SimTime now);

  /// Async importance-score update for the Data Organizer.
  void SubmitScore(VectorMeta& meta, std::uint64_t page, float score,
                   std::size_t from_node, sim::SimTime now);

  /// Stages all dirty pages of a vector to its backend; returns when
  /// every dirty page is durable in its owner's journal, or, for a vector
  /// without one (`ckpt.dir` unset), written in place. `*done` gets that
  /// time. Group commit (DESIGN.md §12): the dirty pages are grouped by
  /// owner node, and each owner runs one StageOut batch — one journal
  /// append of all its redo records (one PFS write), then one in-place PFS
  /// write per contiguous run. Under the Pgas hint an owner's pages form
  /// one run. The in-place writes are off the flush's critical path: their
  /// PFS time is reserved once every owner has journaled, each from its
  /// owner's durability, and raises the vector's `writeback_horizon`.
  /// `*written` (optional) accumulates the pages and payload bytes
  /// persisted.
  Status FlushVector(VectorMeta& meta, std::size_t from_node, sim::SimTime now,
                     sim::SimTime* done, FlushCounts* written = nullptr);

  /// Changes the coherence phase; leaving read-only invalidates replicas
  /// (paper §III-C "Changing Phases").
  Status ChangePhase(VectorMeta& meta, CoherenceMode new_mode,
                     std::size_t from_node, sim::SimTime now,
                     sim::SimTime* done);

  /// Destroys the shared object: drops all scache pages and metadata.
  /// The backend object is kept unless `remove_backend`.
  Status DestroyVector(VectorMeta& meta, bool remove_backend = false);

  /// Flushes every nonvolatile vector and stops all runtimes. Called by the
  /// destructor if not called explicitly. When the fault injector reports a
  /// simulated crash, the clean-exit flush is skipped: on-disk state stays
  /// exactly what the crash left (the ckpt crash tests build a new Service
  /// over the same directories and recover).
  void Shutdown();

  /// scache DRAM bytes in use across all nodes (for memory accounting).
  std::uint64_t ScacheDramUsed() const;

  // ---- internals shared with NodeRuntime ----
  /// Ensures the backend object exists with at least the vector's size.
  Status EnsureBackend(VectorMeta& meta);

 private:
  friend class NodeRuntime;

  /// DropCopy's heal: re-applies the latest redo record of `id` in `node`'s
  /// journal to the backend (ckpt::ReapplyRecord) when it is at or past
  /// `loc`'s version. Returns true when the backend now holds the journaled
  /// version.
  bool TryJournalRecover(std::size_t node, const storage::BlobId& id,
                         const storage::BlobLocation& loc);

  /// Folds the spans of the (last analyzed, now_s] window into the
  /// mm.critpath.* counters and mirrors the wall-source totals.
  void UpdateCritpathCounters(double now_s);

  sim::Cluster* cluster_;
  ServiceOptions options_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<storage::MetadataManager> metadata_;
  // Precedes runtimes_: runtime steps consult the journals.
  std::unique_ptr<ckpt::Coordinator> ckpt_;
  // Telemetry state must precede runtimes_: each NodeRuntime grabs its sink
  // during construction.
  std::vector<std::unique_ptr<telemetry::MetricsRegistry>> metrics_;
  std::unique_ptr<telemetry::TraceRecorder> trace_;
  std::unique_ptr<telemetry::EpochReporter> reporter_;
  // Lock order (MML101): report_mu_ is held across reporter_->epochs() in
  // MaybeEpochReport, which takes the reporter's own mutex.
  Mutex report_mu_ MM_ACQUIRED_BEFORE(telemetry::EpochReporter::mu_);
  double last_epoch_s_ MM_GUARDED_BY(report_mu_) = 0.0;
  /// Upper edge (virtual µs) of the last critpath-analyzed epoch window.
  double critpath_last_us_ MM_GUARDED_BY(report_mu_) = 0.0;
  std::function<std::pair<std::uint64_t, std::uint64_t>()> critpath_wall_
      MM_GUARDED_BY(report_mu_);
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;

  mutable Mutex lost_mu_;
  std::unordered_set<storage::BlobId, storage::BlobIdHash> lost_
      MM_GUARDED_BY(lost_mu_);
  /// Version of each primary DropCopy dropped (RestageVersion).
  std::unordered_map<storage::BlobId, std::uint64_t, storage::BlobIdHash>
      dropped_versions_ MM_GUARDED_BY(lost_mu_);

  /// Fenced (dead) nodes, excluded from page placement. Written once per
  /// death (release); placement paths acquire-load.
  std::vector<std::atomic<bool>> fenced_;
  RecoveryStats last_recovery_ MM_GUARDED_BY(lost_mu_);

  // Lock order (MML101): RegisterVector publishes backend_ready for a
  // freshly built meta while still holding the registration lock.
  Mutex vectors_mu_
      MM_ACQUIRED_BEFORE(VectorMeta::backend_mu, VectorMeta::hint_mu);
  std::map<std::string, std::unique_ptr<VectorMeta>> vectors_
      MM_GUARDED_BY(vectors_mu_);

  // Named distributed locks (GetDistributedLock). locks_mu_ only guards
  // the registry map — never held across an Acquire, so it takes no place
  // above DistributedLock::mu_ in the hierarchy. lease_wait reads each
  // lock's calendar (the leaf BusyChannel::mu_) under it.
  mutable Mutex locks_mu_;
  std::map<std::string, std::unique_ptr<comm::DistributedLock>> dlocks_
      MM_GUARDED_BY(locks_mu_);

  // Per-node in-flight page-fault dedup: concurrent faults for the same
  // blob on one node share one fetch (also how MM_COLLECTIVE transactions
  // avoid overloading the owner). The leader publishes a slot here and runs
  // the fetch outside the lock; followers wait on inflight_cv_ until the
  // leader fills the slot, and keep it alive after the leader erases it.
  struct InflightKey {
    std::size_t node;
    storage::BlobId id;
    bool operator==(const InflightKey&) const = default;
  };
  struct InflightKeyHash {
    std::size_t operator()(const InflightKey& k) const {
      return HashCombine(k.id.Digest(), k.node);
    }
  };
  /// One shared fetch. `done` is guarded by inflight_mu_; the leader writes
  /// `outcome` before it sets `done`, and followers read it after.
  struct InflightFetch {
    TaskOutcome outcome;
    bool done = false;
  };
  Mutex inflight_mu_;
  CondVar inflight_cv_;  // a leader filled its slot
  std::unordered_map<InflightKey, std::shared_ptr<InflightFetch>,
                     InflightKeyHash>
      inflight_ MM_GUARDED_BY(inflight_mu_);

  // Atomic (not merely guarded) because ~Service and an explicit Shutdown
  // may race from different threads; exchange() makes shutdown idempotent.
  std::atomic<bool> shut_down_{false};
  /// Set once any flight record was written; Shutdown's catch-all dump
  /// skips itself so the record closest to the death survives.
  std::atomic<bool> flight_dumped_{false};
};

}  // namespace mm::core
