// Collective node-death recovery (DESIGN.md §13): after a kPeerDead
// verdict, every survivor calls CollectiveRecover together. The recovery
// barrier's serial section — running alone, with all other survivors
// parked — fences the dead ranks out of the message layer, fences dead
// nodes out of page placement, and then either re-homes the dead nodes'
// DSM pages (RecoveryPolicy::kRehome: journal replay for dirty pages,
// lazy backend re-stage for clean ones) or rolls every vector back to the
// last collective checkpoint (kRollback). The revocation is cleared before
// release, so survivors resume on a consistent world; they then continue
// on comm.Shrink().
//
// Protocol (ULFM-flavored, over the deterministic membership state):
//   1. detect   — a collective/receive returns kPeerDead
//   2. revoke   — comm.Revoke() pulls every survivor out of its pending ops
//   3. converge — all survivors call CollectiveRecover (barrier)
//   4. fence    — serial section purges undelivered messages, fences nodes
//   5. recover  — re-home or rollback, per ServiceOptions::recovery_policy
//   6. resume   — ClearRevoke, release, survivors Shrink() and continue
#pragma once

#include <functional>
#include <string>

#include "mm/comm/communicator.h"
#include "mm/core/service.h"

namespace mm::ckpt {

/// Coordinated recovery across all surviving ranks of `comm` (must be the
/// world communicator). `rollback_tag` names the checkpoint to restore
/// under RecoveryPolicy::kRollback (required then, ignored for kRehome).
/// Returns the service's accumulated recovery stats on every survivor.
/// Idempotent: a node already fenced is skipped, so back-to-back failures
/// recover incrementally.
inline StatusOr<core::Service::RecoveryStats> CollectiveRecover(
    comm::Communicator& comm, core::Service& service,
    const std::string& rollback_tag = "") {
  core::RecoveryPolicy policy = service.options().recovery_policy;
  if (policy == core::RecoveryPolicy::kRollback && rollback_tag.empty()) {
    return FailedPrecondition(
        "recovery_policy rollback requires a checkpoint tag");
  }
  comm::World& world = comm.ctx().world();
  std::function<sim::SimTime(sim::SimTime)> serial =
      [&](sim::SimTime sync) -> sim::SimTime {
    sim::SimTime done = sync;
    // Every survivor is parked: fencing cannot race a live sender, and the
    // dead are sticky-dead, so purging every undelivered message leaves no
    // stale one for the recovered epoch.
    world.FenceDeadRanks();
    Status st = Status::Ok();
    bool any_node_died = false;
    for (std::size_t node = 0; node < service.num_nodes(); ++node) {
      // A node with a surviving rank keeps serving its pages; only a fully
      // dead node loses its scache.
      if (!world.NodeIsDead(node) || service.NodeFenced(node)) continue;
      any_node_died = true;
      if (policy == core::RecoveryPolicy::kRollback) {
        service.FenceNode(node);
      } else {
        // The stats land in service.last_recovery(), returned below; the
        // StatusOr here only duplicates them.
        (void)service.RecoverDeadNode(node, comm.ctx().node(), sync);
      }
    }
    if (st.ok() && any_node_died &&
        policy == core::RecoveryPolicy::kRollback) {
      st = service.Restore(rollback_tag, comm.ctx().node(), sync, &done);
    }
    service.checkpointer().PublishResult(st, CheckpointStats{});
    world.ClearRevoke();
    return done;
  };
  MM_RETURN_IF_ERROR(comm.BarrierSerial(serial));
  MM_RETURN_IF_ERROR(service.checkpointer().last_status());
  return service.last_recovery();
}

}  // namespace mm::ckpt
