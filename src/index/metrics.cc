#include "mm/index/metrics.h"

namespace mm::index {

IndexMetrics::IndexMetrics(const telemetry::NodeSink& sink) {
  descents = sink.metrics->GetCounter("mm.index.descent_count");
  node_reads = sink.metrics->GetCounter("mm.index.node_read_count");
  restarts = sink.metrics->GetCounter("mm.index.restart_count");
  smos = sink.metrics->GetCounter("mm.index.smo_count");
}

}  // namespace mm::index
