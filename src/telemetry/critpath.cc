#include "mm/telemetry/critpath.h"

#include <algorithm>
#include <map>

namespace mm::telemetry {

namespace {

struct FlowAccum {
  const TraceEvent* origin = nullptr;  // flow_ph 's' or 'a'
  double task_us = 0.0;                // cat "task" member spans
  double device_us = 0.0;              // cat "stager" member spans
};

std::uint64_t ToNs(double us) {
  if (us <= 0.0) return 0;
  return static_cast<std::uint64_t>(us * 1000.0);
}

}  // namespace

CritpathBreakdown AnalyzeCritpath(const std::vector<TraceEvent>& events,
                                  double begin_us, double end_us) {
  CritpathBreakdown out;
  std::map<std::uint64_t, FlowAccum> flows;
  for (const TraceEvent& ev : events) {
    if (ev.ph != 'X') continue;
    const double ev_end = ev.ts_us + ev.dur_us;
    if (ev.flow_id != 0) {
      FlowAccum& acc = flows[ev.flow_id];
      if (ev.flow_ph == 's' || ev.flow_ph == 'a') {
        acc.origin = &ev;
      } else if (ev.cat == "task") {
        acc.task_us += ev.dur_us;
      } else if (ev.cat == "stager") {
        acc.device_us += ev.dur_us;
      }
      continue;
    }
    // Coherence work (invalidations the phase change waited on) runs
    // outside any flow; attribute it by its own end time.
    if (ev.cat == "coherence" && ev_end > begin_us && ev_end <= end_us) {
      out.coherence_ns += ToNs(ev.dur_us);
    }
    // Bare fault-cat spans (prefetch adoption waits) are caller stall
    // that runs no task: pure data-movement time.
    if (ev.cat == "fault" && ev_end > begin_us && ev_end <= end_us) {
      out.network_ns += ToNs(ev.dur_us);
    }
  }
  for (const auto& [id, acc] : flows) {
    // Only the accumulated spans matter; the flow id just keyed the map.
    (void)id;
    if (acc.origin == nullptr) continue;
    const double origin_end = acc.origin->ts_us + acc.origin->dur_us;
    if (!(origin_end > begin_us && origin_end <= end_us)) continue;
    if (acc.origin->flow_ph == 's') {
      // Sync origin: the requester stalled for exactly the origin span, so
      // the flow attributes exactly origin.dur — decomposed by the hops'
      // composition. A fan-out flow (flush) can carry more summed task
      // time than the caller's wall wait (the tasks overlap); scaling by
      // wait/task keeps attribution equal to the stall actually paid.
      const double wait = acc.origin->dur_us;
      const double network = std::max(0.0, wait - acc.task_us);
      const double budget = wait - network;  // = min(wait, task)
      const double scale = acc.task_us > 0.0 ? budget / acc.task_us : 0.0;
      // Device time can only overlap task time; clamp so a stray stager
      // span never drives queue-wait negative.
      const double device = std::min(acc.device_us, acc.task_us);
      out.network_ns += ToNs(network);
      out.device_ns += ToNs(device * scale);
      out.queue_wait_ns += ToNs((acc.task_us - device) * scale);
    } else if (acc.origin->cat == "msg") {
      // Message egress is the one async origin whose duration is real
      // caller stall (MPI_Send returns at egress completion).
      out.network_ns += ToNs(acc.origin->dur_us);
    }
    // Other async origins (write commits, async flushes) are background
    // work: their flows render in the trace but nobody stalled on them,
    // so they contribute nothing to the critical path.
  }
  return out;
}

}  // namespace mm::telemetry
