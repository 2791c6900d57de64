#include "mm/core/options.h"

#include <algorithm>
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

// Every key FromYaml reads under `runtime:`.
constexpr std::string_view kRuntimeKeys[] = {
    "organize_every",   "enable_prefetch", "enable_organizer",
    "verify_checksums", "recovery_policy"};

}  // namespace

StatusOr<ServiceOptions> ServiceOptions::FromYaml(const yaml::Node& root) {
  ServiceOptions opts;
  const yaml::Node& runtime = root["runtime"];
  if (runtime.IsMap()) {
    for (const std::string& key : runtime.Keys()) {
      if (std::ranges::count(kRuntimeKeys, key) == 0) {
        return InvalidArgument("unknown runtime key '" + key + "'");
      }
    }
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
    opts.telemetry.enabled =
        telemetry.GetBool("enabled", opts.telemetry.enabled);
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
    opts.telemetry.flightrec_capacity = static_cast<std::uint64_t>(
        telemetry.GetInt("flightrec_capacity",
                         static_cast<std::int64_t>(
                             opts.telemetry.flightrec_capacity)));
  }
  const yaml::Node& ckpt = root["ckpt"];
  if (ckpt.IsMap()) {
    opts.ckpt.dir = ckpt.GetString("dir", opts.ckpt.dir);
    opts.ckpt.journal_writeback =
        ckpt.GetBool("journal_writeback", opts.ckpt.journal_writeback);
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
