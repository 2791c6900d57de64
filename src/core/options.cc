#include "mm/core/options.h"

#include <algorithm>
#include <span>
#include <string_view>

namespace mm::core {

namespace {

StatusOr<sim::TierKind> ParseTierKind(const std::string& name) {
  if (name == "dram") return sim::TierKind::kDram;
  if (name == "nvme") return sim::TierKind::kNvme;
  if (name == "ssd") return sim::TierKind::kSsd;
  if (name == "hdd") return sim::TierKind::kHdd;
  return InvalidArgument("unknown tier kind '" + name + "'");
}

// Every key FromYaml reads under `runtime:`, `telemetry:` and `ckpt:`.
constexpr std::string_view kRuntimeKeys[] = {
    "organize_every",   "enable_prefetch", "enable_organizer",
    "verify_checksums", "recovery_policy"};
constexpr std::string_view kTelemetryKeys[] = {
    "trace_path", "trace_capacity", "report_interval_s", "report_path",
    "flightrec_dir"};
constexpr std::string_view kCkptKeys[] = {"dir"};

/// InvalidArgument naming the first key of `section` not in `known`, so a
/// typo or a retired knob fails loudly instead of being ignored.
Status CheckKeys(const yaml::Node& section, std::string_view name,
                 std::span<const std::string_view> known) {
  for (const std::string& key : section.Keys()) {
    if (std::ranges::count(known, key) == 0) {
      return InvalidArgument("unknown " + std::string(name) + " key '" + key +
                             "'");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ServiceOptions> ServiceOptions::FromYaml(const yaml::Node& root) {
  ServiceOptions opts;
  const yaml::Node& runtime = root["runtime"];
  if (runtime.IsMap()) {
    MM_RETURN_IF_ERROR(CheckKeys(runtime, "runtime", kRuntimeKeys));
    opts.organize_every =
        static_cast<int>(runtime.GetInt("organize_every", opts.organize_every));
    opts.enable_prefetch =
        runtime.GetBool("enable_prefetch", opts.enable_prefetch);
    opts.enable_organizer =
        runtime.GetBool("enable_organizer", opts.enable_organizer);
    opts.verify_checksums =
        runtime.GetBool("verify_checksums", opts.verify_checksums);
    std::string policy = runtime.GetString("recovery_policy", "");
    if (policy == "rehome") {
      opts.recovery_policy = RecoveryPolicy::kRehome;
    } else if (policy == "rollback") {
      opts.recovery_policy = RecoveryPolicy::kRollback;
    } else if (!policy.empty()) {
      return InvalidArgument("unknown recovery_policy '" + policy +
                             "' (want rehome|rollback)");
    }
  }
  if (root.Has("retry")) {
    MM_ASSIGN_OR_RETURN(opts.retry, RetryPolicy::FromYaml(root["retry"]));
  }
  if (root.Has("faults")) {
    MM_ASSIGN_OR_RETURN(opts.faults, sim::FaultConfig::FromYaml(root["faults"]));
  }
  const yaml::Node& telemetry = root["telemetry"];
  if (telemetry.IsMap()) {
    MM_RETURN_IF_ERROR(CheckKeys(telemetry, "telemetry", kTelemetryKeys));
    opts.telemetry.trace_path =
        telemetry.GetString("trace_path", opts.telemetry.trace_path);
    opts.telemetry.trace_capacity =
        telemetry.GetBytes("trace_capacity", opts.telemetry.trace_capacity);
    opts.telemetry.report_interval_s = telemetry.GetDouble(
        "report_interval_s", opts.telemetry.report_interval_s);
    opts.telemetry.report_path =
        telemetry.GetString("report_path", opts.telemetry.report_path);
    opts.telemetry.flightrec_dir =
        telemetry.GetString("flightrec_dir", opts.telemetry.flightrec_dir);
  }
  const yaml::Node& ckpt = root["ckpt"];
  if (ckpt.IsMap()) {
    MM_RETURN_IF_ERROR(CheckKeys(ckpt, "ckpt", kCkptKeys));
    opts.ckpt.dir = ckpt.GetString("dir", opts.ckpt.dir);
  }
  const yaml::Node& tiers = root["tiers"];
  if (tiers.IsList()) {
    for (const yaml::Node& tier : tiers.Items()) {
      if (!tier.IsMap()) return InvalidArgument("tier entry must be a map");
      MM_ASSIGN_OR_RETURN(sim::TierKind kind,
                          ParseTierKind(tier.GetString("kind", "")));
      std::uint64_t cap = tier.GetBytes("capacity", 0);
      if (cap == 0) return InvalidArgument("tier capacity must be set");
      opts.tier_grants.push_back({kind, cap});
    }
  }
  return opts;
}

}  // namespace mm::core
