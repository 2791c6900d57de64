// Per-epoch critical-path attribution (DESIGN.md §11). Walks the causal
// spans recorded by TraceRecorder and splits the time requesters actually
// waited on into queue-wait / network / device / coherence buckets:
//
//   device     = stager/tier span time inside flow tasks
//   queue_wait = flow task time not covered by device spans (the task's
//                dispatch and non-device work on the owner node)
//   network    = sync-origin time not covered by its tasks (transfer +
//                response legs), plus the full origin span of async flows
//                (write commits, messages — their requester-visible cost
//                is the send leg)
//   coherence  = invalidation / replication spans outside any flow
//
// Together with the virtual-clock compute/stall totals (every rank's
// Advance() is compute, every forward AdvanceTo() is stall) this lets the
// epoch report decompose wall time: compute + stall == wall exactly, and
// the attributed buckets explain where the stall went. Compiled in both
// telemetry modes (TraceEvent exists unconditionally); with telemetry off
// the event list is empty and every bucket is zero.
#pragma once

#include <cstdint>
#include <vector>

#include "mm/telemetry/trace.h"

namespace mm::telemetry {

/// Attributed wait time in virtual nanoseconds.
struct CritpathBreakdown {
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t network_ns = 0;
  std::uint64_t device_ns = 0;
  std::uint64_t coherence_ns = 0;

  std::uint64_t attributed_ns() const {
    return queue_wait_ns + network_ns + device_ns + coherence_ns;
  }
};

/// Attributes every flow whose origin span *ends* in virtual-microsecond
/// window (begin_us, end_us], plus coherence spans ending in the window.
/// Pass the full TraceRecorder::Snapshot(); spans outside the window are
/// ignored except as members of an in-window flow.
CritpathBreakdown AnalyzeCritpath(const std::vector<TraceEvent>& events,
                                  double begin_us, double end_us);

}  // namespace mm::telemetry
