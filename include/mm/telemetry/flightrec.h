// Crash flight recorder (DESIGN.md §11). Dumps the most recent spans from
// the TraceRecorder's always-on flight ring plus a metrics snapshot to
// `<dir>/flightrec_<rank>.json`, so every crash point, rank kill, and
// kDataLoss leaves a postmortem artifact even when full tracing is off.
// The ring is armed exactly when `telemetry.flightrec_dir` is set.
#pragma once

#include <string>
#include <string_view>

#include "mm/telemetry/metrics.h"
#include "mm/telemetry/trace.h"
#include "mm/util/status.h"

namespace mm::telemetry {

/// Serializes a flight record to JSON (no I/O): {"rank":..,"reason":..,
/// "t_s":..,"spans":[..],"metrics":{..}}. Spans are the flight ring,
/// oldest first. Safe to call from crash paths: only takes the trace and
/// metrics leaf locks, never a buffer-manager or service lock.
std::string FlightRecordJson(int rank, std::string_view reason, double now_s,
                             const TraceRecorder& trace,
                             const MetricsRegistry& metrics);

/// Writes FlightRecordJson to `<dir>/flightrec_<rank>.json`. Overwrites an
/// earlier record for the same rank (the last dump before death wins).
Status WriteFlightRecord(const std::string& dir, int rank,
                         std::string_view reason, double now_s,
                         const TraceRecorder& trace,
                         const MetricsRegistry& metrics);

}  // namespace mm::telemetry
