#include "mm/sim/device.h"

#include "mm/util/byte_units.h"

namespace mm::sim {

const char* TierKindName(TierKind kind) {
  switch (kind) {
    case TierKind::kDram:
      return "DRAM";
    case TierKind::kNvme:
      return "NVMe";
    case TierKind::kSsd:
      return "SSD";
    case TierKind::kHdd:
      return "HDD";
    case TierKind::kPfs:
      return "PFS";
  }
  return "?";
}

char TierKindCode(TierKind kind) {
  switch (kind) {
    case TierKind::kDram:
      return 'D';
    case TierKind::kNvme:
      return 'N';
    case TierKind::kSsd:
      return 'S';
    case TierKind::kHdd:
      return 'H';
    case TierKind::kPfs:
      return 'P';
  }
  return '?';
}

namespace {
constexpr double kGB = 1e9;  // device vendors use decimal GB/s
}

DeviceSpec DeviceSpec::Dram(std::uint64_t capacity) {
  // Per-process effective stream bandwidth, not peak channel bandwidth.
  return DeviceSpec{TierKind::kDram, capacity,
                    /*read_latency_s=*/100e-9, /*write_latency_s=*/100e-9,
                    /*read_bw_Bps=*/12.0 * kGB, /*write_bw_Bps=*/10.0 * kGB,
                    /*dollars_per_gb=*/3.0, /*channels=*/4};
}

DeviceSpec DeviceSpec::Nvme(std::uint64_t capacity) {
  // Per-channel bandwidth; 4 queue pairs give the device its full rate
  // under concurrency.
  return DeviceSpec{TierKind::kNvme, capacity,
                    /*read_latency_s=*/20e-6, /*write_latency_s=*/25e-6,
                    /*read_bw_Bps=*/0.7 * kGB, /*write_bw_Bps=*/0.5 * kGB,
                    /*dollars_per_gb=*/0.08, /*channels=*/4};
}

DeviceSpec DeviceSpec::Ssd(std::uint64_t capacity) {
  return DeviceSpec{TierKind::kSsd, capacity,
                    /*read_latency_s=*/90e-6, /*write_latency_s=*/120e-6,
                    /*read_bw_Bps=*/0.27 * kGB, /*write_bw_Bps=*/0.23 * kGB,
                    /*dollars_per_gb=*/0.04, /*channels=*/2};
}

DeviceSpec DeviceSpec::Hdd(std::uint64_t capacity) {
  // ~6-10x slower than SSD/NVMe per the paper. The per-op latency models
  // the average positioning cost of the mostly-sequential buffered streams
  // tiering produces (pure random seeks would be ~5ms; large sequential
  // runs amortize to near zero).
  return DeviceSpec{TierKind::kHdd, capacity,
                    /*read_latency_s=*/2e-3, /*write_latency_s=*/2e-3,
                    /*read_bw_Bps=*/0.16 * kGB, /*write_bw_Bps=*/0.14 * kGB,
                    /*dollars_per_gb=*/0.02, /*channels=*/1};
}

DeviceSpec DeviceSpec::Pfs(std::uint64_t capacity) {
  // A shared remote parallel filesystem: high latency, moderate per-client
  // bandwidth. Used as the persistent backend for nonvolatile vectors.
  // Striped across 8 servers in 1 MiB stripes (Lustre's default stripe
  // size): per-stream latency stays high, but eight requests, or the eight
  // stripes of one large request, proceed concurrently.
  return DeviceSpec{TierKind::kPfs, capacity,
                    /*read_latency_s=*/0.8e-3, /*write_latency_s=*/1.2e-3,
                    /*read_bw_Bps=*/1.0 * kGB, /*write_bw_Bps=*/0.8 * kGB,
                    /*dollars_per_gb=*/0.01, /*channels=*/8,
                    /*stripe_bytes=*/kMiB};
}

DeviceSpec DeviceSpec::ForKind(TierKind kind, std::uint64_t capacity) {
  switch (kind) {
    case TierKind::kDram:
      return Dram(capacity);
    case TierKind::kNvme:
      return Nvme(capacity);
    case TierKind::kSsd:
      return Ssd(capacity);
    case TierKind::kHdd:
      return Hdd(capacity);
    case TierKind::kPfs:
      return Pfs(capacity);
  }
  return Dram(capacity);
}

}  // namespace mm::sim
