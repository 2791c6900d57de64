#include "mm/telemetry/trace.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace mm::telemetry {

namespace {

/// Minimal JSON string escaping; event names/categories are internal
/// literals, but a stray quote must not corrupt the file.
void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// Companion flow event ('s'/'t'/'f') tying spans of one flow together.
/// Chrome matches flow events by (cat, id) and binds each to the slice
/// enclosing its timestamp on that pid/tid track; `bp:e` on the finish
/// step binds to the enclosing slice instead of the next one.
void AppendFlowEvent(std::string* out, const TraceEvent& ev, char ph,
                     double ts_us) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"%c\","
                "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s}",
                ph, ev.flow_id, ts_us, ev.pid, ev.tid,
                ph == 'f' ? ",\"bp\":\"e\"" : "");
  *out += buf;
}

void AppendEvent(std::string* out, const TraceEvent& ev) {
  char buf[192];
  *out += "{\"name\":\"";
  AppendEscaped(out, ev.name);
  *out += "\",\"cat\":\"";
  AppendEscaped(out, ev.cat);
  *out += "\",\"ph\":\"";
  *out += ev.ph;
  if (ev.ph == 'X') {
    std::snprintf(buf, sizeof(buf),
                  "\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d",
                  ev.ts_us, ev.dur_us, ev.pid, ev.tid);
    *out += buf;
    if (ev.flow_id != 0) {
      std::snprintf(buf, sizeof(buf),
                    ",\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
                    "}",
                    ev.flow_id, ev.span_id);
      *out += buf;
    }
    *out += "}";
  } else {
    std::snprintf(buf, sizeof(buf),
                  "\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}", ev.ts_us,
                  ev.pid, ev.tid);
    *out += buf;
  }
  // Flow companions. 's'/'a' open the flow at span start; 't'/'f' continue
  // it; 's' and 'f' additionally terminate it at span end (sync origins own
  // their whole flow; async flows are closed by their terminal hop).
  if (ev.flow_id != 0 && ev.flow_ph != 0) {
    if (ev.flow_ph == 's' || ev.flow_ph == 'a') {
      *out += ",\n";
      AppendFlowEvent(out, ev, 's', ev.ts_us);
    } else {
      *out += ",\n";
      AppendFlowEvent(out, ev, 't', ev.ts_us);
    }
    if (ev.flow_ph == 's' || ev.flow_ph == 'f') {
      *out += ",\n";
      AppendFlowEvent(out, ev, 'f', ev.ts_us + ev.dur_us);
    }
  }
}

/// Process-wide id source for trace and span ids. A relaxed counter, never
/// a wall clock or RNG (mm-verify MML104: virtual-clock determinism).
std::atomic<std::uint64_t> g_next_id{1};

std::uint64_t NextId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

/// Ambient per-thread flow context installed by TraceContextScope.
thread_local TraceContext g_current_ctx;

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceContext TraceRecorder::NewContext(int node) {
  TraceContext ctx;
  // Node id in the high bits keeps ids readable in dumps; the counter in
  // the low bits guarantees process-wide uniqueness.
  ctx.trace_id = (static_cast<std::uint64_t>(node + 1) << 48) | NextId();
  ctx.parent_span = 0;
  return ctx;
}

void TraceRecorder::Complete(std::string_view name, std::string_view cat,
                             int node, int tid, double begin_s, double end_s) {
  if (!enabled() && !flight_on_.load(std::memory_order_relaxed)) return;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.cat = std::string(cat);
  ev.ph = 'X';
  ev.ts_us = begin_s * 1e6;
  ev.dur_us = (end_s - begin_s) * 1e6;
  if (ev.dur_us < 0) ev.dur_us = 0;
  ev.pid = node;
  ev.tid = tid;
  Push(std::move(ev));
}

std::uint64_t TraceRecorder::CompleteFlow(std::string_view name,
                                          std::string_view cat, int node,
                                          int tid, double begin_s, double end_s,
                                          const TraceContext& ctx,
                                          char flow_ph) {
  if (!ctx.valid()) {
    Complete(name, cat, node, tid, begin_s, end_s);
    return 0;
  }
  if (!enabled() && !flight_on_.load(std::memory_order_relaxed)) return 0;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.cat = std::string(cat);
  ev.ph = 'X';
  ev.ts_us = begin_s * 1e6;
  ev.dur_us = (end_s - begin_s) * 1e6;
  if (ev.dur_us < 0) ev.dur_us = 0;
  ev.pid = node;
  ev.tid = tid;
  ev.flow_id = ctx.trace_id;
  ev.span_id = NextId();
  ev.flow_ph = flow_ph;
  std::uint64_t span = ev.span_id;
  Push(std::move(ev));
  return span;
}

void TraceRecorder::Instant(std::string_view name, std::string_view cat,
                            int node, int tid, double t_s) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.cat = std::string(cat);
  ev.ph = 'i';
  ev.ts_us = t_s * 1e6;
  ev.pid = node;
  ev.tid = tid;
  Push(std::move(ev));
}

void TraceRecorder::Push(TraceEvent ev) {
  MutexLock lock(mu_);
  if (flight_on_.load(std::memory_order_relaxed) && ev.ph == 'X') {
    if (flight_.size() < kFlightSpans) {
      flight_.push_back(ev);
    } else {
      flight_[flight_head_] = ev;
      flight_head_ = (flight_head_ + 1) % kFlightSpans;
    }
  }
  if (!enabled()) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::FlightSnapshot() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(flight_.size());
  for (std::size_t i = 0; i < flight_.size(); ++i) {
    out.push_back(flight_[(flight_head_ + i) % flight_.size()]);
  }
  return out;
}

std::uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::size_t TraceRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

std::string TraceRecorder::ToJson() const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ",\n";
    AppendEvent(&out, events[i]);
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return IoError("trace: cannot open " + path);
  }
  std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return IoError("trace: short write to " + path);
  }
  return Status::Ok();
}

TraceContextScope::TraceContextScope(const TraceContext& ctx)
    : saved_(g_current_ctx) {
  g_current_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { g_current_ctx = saved_; }

TraceContext CurrentTraceContext() { return g_current_ctx; }

TraceRecorder& TraceRecorder::Dummy() {
  static TraceRecorder dummy(1);
  return dummy;
}

}  // namespace mm::telemetry
