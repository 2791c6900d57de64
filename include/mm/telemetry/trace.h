// Chrome/Perfetto trace recorder (DESIGN.md §11). Records complete ('X')
// spans and instant ('i') events stamped from the *virtual* clock
// (sim::SimTime seconds → microseconds), so the simulated I/O time is what
// shows up on the timeline, not wall time. One process-wide recorder; the
// Chrome `pid` field carries the node id so each node renders as its own
// track, and `tid` carries the rank within the node (0 for task spans).
//
// Causal tracing: a `TraceContext` (trace id + parent span id) is minted at
// fault origin, rides through the runtime's entry points (their `tctx`
// argument) and the comm::Message header, and
// downstream spans recorded with CompleteFlow() carry Perfetto flow events
// ('s' at the origin, 't' on each downstream hop, 'f' closing the flow) so
// one page fault renders as a single connected arrow chain across nodes.
//
// Storage is a bounded ring: when full, the oldest event is overwritten
// and `dropped()` counts the loss. Recording is off by default; when
// disabled, Complete/Instant are a single relaxed atomic load. A second,
// small "flight" ring can be armed independently (arm_flight); it keeps
// the most recent kFlightSpans spans even when full tracing is off, so a
// crash can dump a postmortem (flightrec_<rank>.json) from any run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::telemetry {

/// Causal identity carried across task queues and the wire. `trace_id`
/// names the whole flow (one page fault / flush / commit); `parent_span`
/// names the span that caused the current hop. Zero trace_id = no flow.
/// The runtime's entry points and comm::Message carry it by value.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  bool valid() const { return trace_id != 0; }
};

/// One trace_event entry. `ts_us`/`dur_us` are virtual microseconds.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';  // 'X' = complete span, 'i' = instant
  double ts_us = 0.0;
  double dur_us = 0.0;  // spans only
  int pid = 0;          // node id
  int tid = 0;          // rank within the node; 0 for task spans
  // Flow linkage (CompleteFlow spans only). The serializer expands
  // flow_ph into Perfetto flow companions:
  //   's' sync origin   -> flow 's' at span start + 'f' at span end
  //   'a' async origin  -> flow 's' at span start only
  //   't' downstream hop -> flow 't' at span start
  //   'f' terminal hop   -> flow 't' at span start + 'f' at span end
  // Sync origins (page faults, flushes) enclose their whole flow in
  // virtual time; async flows (write commits, messages) are closed by
  // their terminal hop instead, so the 'f' timestamp is always last.
  std::uint64_t flow_id = 0;
  std::uint64_t span_id = 0;
  char flow_ph = 0;  // 0 = no flow; else one of 's', 'a', 't', 'f'
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  /// Recording gate, checked first on every emit path (relaxed atomic).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans the flight ring keeps (the most recent ones).
  static constexpr std::size_t kFlightSpans = 256;

  /// Arms the always-on flight ring holding the last kFlightSpans spans
  /// for postmortems. Independent of set_enabled().
  void arm_flight() { flight_on_.store(true, std::memory_order_relaxed); }

  /// Records a complete span covering virtual seconds [begin_s, end_s].
  void Complete(std::string_view name, std::string_view cat, int node, int tid,
                double begin_s, double end_s);

  /// Records a complete span participating in the flow named by `ctx`
  /// (see TraceEvent::flow_ph for the 's'/'a'/'t'/'f' roles). Falls back
  /// to a plain Complete() when ctx is invalid. Returns the new span's id
  /// (0 when nothing was recorded).
  std::uint64_t CompleteFlow(std::string_view name, std::string_view cat,
                             int node, int tid, double begin_s, double end_s,
                             const TraceContext& ctx, char flow_ph);

  /// Records an instant event at virtual second `t_s`.
  void Instant(std::string_view name, std::string_view cat, int node, int tid,
               double t_s);

  /// Mints a fresh flow context rooted at `node`. Ids come from a
  /// process-wide relaxed atomic counter (deterministic across runs with
  /// the same interleaving; never a wall clock or RNG).
  static TraceContext NewContext(int node);

  /// Events in record order, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Most recent flight-ring spans, oldest first (empty when unarmed).
  std::vector<TraceEvent> FlightSnapshot() const;

  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Serializes to Chrome trace format: {"traceEvents":[...]}.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  /// Never-enabled shared instance for components wired without telemetry.
  static TraceRecorder& Dummy();

 private:
  void Push(TraceEvent ev);
  std::uint64_t NextSpanId();

  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> flight_on_{false};
  // mm-verify: leaf-lock(trace ring writes only, never calls out while held)
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ MM_GUARDED_BY(mu_);  // insertion ring
  std::size_t head_ MM_GUARDED_BY(mu_) = 0;  // next overwrite slot once full
  std::uint64_t dropped_ MM_GUARDED_BY(mu_) = 0;
  std::vector<TraceEvent> flight_ MM_GUARDED_BY(mu_);  // postmortem ring
  std::size_t flight_head_ MM_GUARDED_BY(mu_) = 0;
};

/// RAII ambient trace context for the current thread. The runtime
/// installs the task's context around Execute() so nested stager/tier
/// spans can join the flow without threading a parameter through every
/// layer.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// The innermost TraceContextScope's context (invalid when none active).
TraceContext CurrentTraceContext();

}  // namespace mm::telemetry
