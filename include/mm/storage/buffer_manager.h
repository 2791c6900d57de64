// BufferManager: one node's slice of the shared cache (scache). Owns a
// TierStore per granted tier and implements score-driven placement:
// incoming blobs go to the fastest tier with room; lower-scoring resident
// blobs are demoted down the hierarchy to make room for higher-scoring ones
// (paper §III-D "Data Organization": "Pages with lower scores in a tier
// will be prioritized for eviction to make space for higher-scoring data").
//
// Fault handling: tier ops are retried per the RetryPolicy (transient
// kIoError), with backoff charged to the virtual clock. A permanent tier
// failure (kUnavailable) marks the tier dead: its contents are drained,
// placement re-routes to surviving tiers, and the registered tier-failure
// handler (the Service) is told which blobs were lost: it drops their
// copies, so clean pages stage back in from the PFS backend on their next
// touch and dirty pages are healed from the redo journal or flagged as
// data loss.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mm/sim/cluster.h"
#include "mm/sim/fault.h"
#include "mm/storage/tier_store.h"
#include "mm/telemetry/sink.h"
#include "mm/util/mutex.h"
#include "mm/util/retry.h"

namespace mm::storage {

/// Capacity granted to the program on one tier (Fig. 7 sweeps these).
struct TierGrant {
  sim::TierKind kind;
  std::uint64_t capacity;
};

class BufferManager {
 public:
  /// Invoked (outside the manager's lock) after a tier permanently fails,
  /// with the blob ids that were resident — and are now lost — on it.
  using TierFailureHandler = std::function<void(
      sim::TierKind kind, const std::vector<BlobId>& lost, sim::SimTime now)>;

  /// `node` must outlive the manager; every grant's tier must exist on it.
  /// `injector` (optional, not owned) feeds faults into the tier stores.
  /// `sink` receives placement metrics and is forwarded to the tier stores.
  BufferManager(sim::Node* node, const std::vector<TierGrant>& grants,
                sim::FaultInjector* injector = nullptr, RetryPolicy retry = {},
                telemetry::NodeSink sink = telemetry::NodeSink::Dummy());

  std::size_t num_tiers() const { return tiers_.size(); }
  TierStore& tier(std::size_t i) { return *tiers_[i]; }
  const TierStore& tier(std::size_t i) const { return *tiers_[i]; }

  /// Tiers that have not permanently failed.
  std::size_t num_live_tiers() const;

  /// Registers the permanent-failure callback (typically Service recovery).
  void SetTierFailureHandler(TierFailureHandler handler);

  /// Total bytes across all tiers.
  std::uint64_t used() const;
  std::uint64_t capacity() const;

  /// Places a blob committed under `stamp` with an importance score
  /// (replacing any copy and its stamp). Tries live tiers fastest-first; if
  /// a tier is full, demotes its lowest-scoring blobs below the incoming
  /// score to the next tier down (cascading). Returns the tier index used.
  /// Fails with kResourceExhausted when nothing fits anywhere, or
  /// kUnavailable when every tier has permanently failed.
  StatusOr<std::size_t> PutScored(const BlobId& id,
                                  std::vector<std::uint8_t> data, float score,
                                  BlobStamp stamp, sim::SimTime now,
                                  sim::SimTime* done);

  /// Commits bytes [offset, ...) of a resident blob in place: the version
  /// is bumped and the CRC re-computed with the bytes, under the tier's
  /// lock. Returns the new stamp.
  StatusOr<BlobStamp> PutPartial(const BlobId& id, std::uint64_t offset,
                                 const std::vector<std::uint8_t>& data,
                                 sim::SimTime now, sim::SimTime* done);

  /// Reads a whole blob from whichever tier holds it.
  StatusOr<std::vector<std::uint8_t>> Get(const BlobId& id, sim::SimTime now,
                                          sim::SimTime* done);

  /// Reads a whole blob into a caller-provided buffer, reusing its
  /// capacity (zero-copy task path: tasks pass pooled page buffers).
  /// Returns the stamp the bytes were copied under.
  StatusOr<BlobStamp> GetInto(const BlobId& id, std::vector<std::uint8_t>* out,
                              sim::SimTime now, sim::SimTime* done);

  /// Reads a fragment of a blob.
  StatusOr<std::vector<std::uint8_t>> GetPartial(const BlobId& id,
                                                 std::uint64_t offset,
                                                 std::uint64_t size,
                                                 sim::SimTime now,
                                                 sim::SimTime* done);

  /// Tier index currently holding `id`, or nullopt.
  std::optional<std::size_t> FindBlob(const BlobId& id) const;

  Status Erase(const BlobId& id);

  /// Re-scores a resident blob (organizer input).
  void SetScore(const BlobId& id, float score);
  float GetScore(const BlobId& id) const;

  /// Organizer sweep: promotes the highest-scoring blobs upward while
  /// faster tiers have room, and demotes low-scoring blobs out of
  /// pressured tiers. Returns the number of blobs moved.
  int Rebalance(sim::SimTime now, sim::SimTime* done);

  /// Idle-device estimate of reading `bytes` from the tier holding `id`
  /// (prefetcher input, Algorithm 1 line 21). Falls back to the slowest
  /// live tier when the blob is absent.
  double EstimateReadSeconds(const BlobId& id, std::uint64_t bytes) const;

 private:
  struct PendingFailure {
    sim::TierKind kind;
    std::vector<BlobId> lost;
  };

  // Lock-holding bodies of the public entry points. Split out (instead of
  // immediately-invoked lambdas) so the thread-safety analysis can check
  // them: a lambda body is a separate, unannotated function to Clang.
  StatusOr<std::size_t> PutScoredLocked(const BlobId& id,
                                        std::vector<std::uint8_t> data,
                                        float score, BlobStamp stamp,
                                        sim::SimTime now, sim::SimTime* done)
      MM_REQUIRES(mu_);
  StatusOr<BlobStamp> PutPartialLocked(const BlobId& id, std::uint64_t offset,
                                       const std::vector<std::uint8_t>& data,
                                       sim::SimTime now, sim::SimTime* done)
      MM_REQUIRES(mu_);
  StatusOr<std::vector<std::uint8_t>> GetLocked(const BlobId& id,
                                                sim::SimTime now,
                                                sim::SimTime* done)
      MM_REQUIRES(mu_);
  StatusOr<BlobStamp> GetIntoLocked(const BlobId& id,
                                    std::vector<std::uint8_t>* out,
                                    sim::SimTime now, sim::SimTime* done)
      MM_REQUIRES(mu_);
  StatusOr<std::vector<std::uint8_t>> GetPartialLocked(const BlobId& id,
                                                       std::uint64_t offset,
                                                       std::uint64_t size,
                                                       sim::SimTime now,
                                                       sim::SimTime* done)
      MM_REQUIRES(mu_);

  /// Moves one blob with its stamp from tier `from` to tier `to` (charges
  /// both devices).
  /// Holds mu_ for the whole placement decision it is part of.
  Status Move(const BlobId& id, std::size_t from, std::size_t to,
              sim::SimTime now, sim::SimTime* done) MM_REQUIRES(mu_);

  /// Tries to free `needed` bytes in tier `t` by demoting blobs scoring
  /// below `incoming_score` to lower tiers (ties also move when
  /// `allow_ties`, used for cascaded demotions so equal-score data flows
  /// downward instead of wedging the hierarchy). Returns true on success.
  bool MakeRoom(std::size_t t, std::uint64_t needed, float incoming_score,
                bool allow_ties, sim::SimTime now, sim::SimTime* done)
      MM_REQUIRES(mu_);

  /// Drains any tier that failed but has not been drained yet. Collected
  /// failures are reported via NotifyFailures after unlock.
  std::vector<PendingFailure> CollectFailuresLocked() MM_REQUIRES(mu_);
  /// Invokes the failure handler outside mu_ (the handler re-enters the
  /// manager through Service recovery).
  void NotifyFailures(std::vector<PendingFailure> failures, sim::SimTime now)
      MM_EXCLUDES(mu_);

  std::vector<std::unique_ptr<TierStore>> tiers_;
  RetryPolicy retry_;
  telemetry::Counter* demotions_;  // mm.tier.demotion_count
  // Guards scores_ and placement orchestration. Lock order (MML101): the
  // placement paths call into TierStore (Contains/Erase/FindBlob) while
  // holding mu_, and each TierStore locks its own mutex.
  mutable Mutex mu_ MM_ACQUIRED_BEFORE(TierStore::mu_);
  std::unordered_map<BlobId, float, BlobIdHash> scores_ MM_GUARDED_BY(mu_);
  std::vector<bool> tier_drained_ MM_GUARDED_BY(mu_);
  TierFailureHandler failure_handler_ MM_GUARDED_BY(mu_);
};

}  // namespace mm::storage
