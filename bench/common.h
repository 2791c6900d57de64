// Shared helpers for the figure-reproduction benchmarks: repeated runs with
// averaging (the paper runs each experiment 3 times and reports the
// average), dataset staging, table/CSV output, and scaled-down experiment
// geometry (documented per figure in EXPERIMENTS.md).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "mm/apps/datagen.h"
#include "mm/mega_mmap.h"
#include "mm/util/stats.h"

namespace mmbench {

/// True when the binary was invoked with --csv.
inline bool CsvMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return true;
  }
  return false;
}

/// Repetitions per configuration (paper: 3).
inline int Reps(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--reps") return std::atoi(argv[i + 1]);
  }
  return 3;
}

/// Scratch directory for datasets and backends; wiped on construction.
class BenchDir {
 public:
  explicit BenchDir(const std::string& name) {
    path_ = std::filesystem::temp_directory_path() / ("mm_bench_" + name);
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string Key(const std::string& scheme, const std::string& file,
                  const std::string& frag = "") const {
    std::string k = scheme + "://" + (path_ / file).string();
    if (!frag.empty()) k += ":" + frag;
    return k;
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Set when any MeasureSeconds repetition fails; every figure and ablation
/// main returns ExitCode(), so a failed run cannot pass as a fast one.
inline bool g_run_failed = false;

inline int ExitCode() { return g_run_failed ? 1 : 0; }

/// One measured configuration: runs `body` `reps` times, returns the mean
/// virtual runtime in seconds. `body` returns the job RunResult. When
/// `samples` is given the per-rep runtimes are appended to it (for
/// BenchReport percentile series). With reps > 1 it prints the spread to
/// stderr: one line per configuration with the mean and the coefficient of
/// variation (stddev / mean).
///
/// A simulated OOM with `oom` given sets `*oom` and returns 0 (the caller
/// prints its own OOM-killed cell). Any other failed repetition, or an OOM
/// nobody asked about, sets g_run_failed and returns NaN, which Fmt prints
/// as FAILED.
inline double MeasureSeconds(int reps,
                             const std::function<mm::comm::RunResult()>& body,
                             bool* oom = nullptr,
                             mm::StatAccumulator* samples = nullptr) {
  mm::StatAccumulator acc;
  if (oom != nullptr) *oom = false;
  for (int r = 0; r < reps; ++r) {
    auto result = body();
    if (result.oom && oom != nullptr) {
      *oom = true;
      return 0.0;
    }
    if (!result.ok()) {
      std::fprintf(stderr, "bench run failed: %s\n",
                   result.oom ? "OOM" : result.error.c_str());
      g_run_failed = true;
      return std::nan("");
    }
    acc.Add(result.max_time);
    if (samples != nullptr) samples->Add(result.max_time);
  }
  if (reps > 1) {
    std::fprintf(stderr, "spread: %d reps, mean %.6g s, cv %.4f\n", reps,
                 acc.Mean(), acc.Mean() > 0 ? acc.Stddev() / acc.Mean() : 0.0);
  }
  return acc.Mean();
}

/// Unified BENCH_*.json emission, shared by every benchmark binary and read
/// by ci/check_perf.py. One schema for all reports:
///
///   {
///     "name":    "<benchmark>",
///     "config":  { string or numeric knobs of this run },
///     "metrics": { flat scalar results, e.g. "scalar_ns_per_access": 3.5 },
///     "series":  { "<label>": {"count": n, "mean": m,
///                              "p50": ..., "p95": ..., "p99": ...} }
///   }
///
/// `metrics` carries single numbers (gate targets); `series` carries
/// repeated-run distributions summarized through StatAccumulator's
/// linear-interpolated percentiles.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Config(const std::string& key, const std::string& value) {
    config_.push_back({key, "\"" + Escape(value) + "\""});
  }
  void Config(const std::string& key, double value) {
    config_.push_back({key, Num(value)});
  }
  void Metric(const std::string& key, double value) {
    metrics_.push_back({key, Num(value)});
  }
  void Series(const std::string& key, const mm::StatAccumulator& acc) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %zu, \"mean\": %s, \"p50\": %s, \"p95\": %s, "
                  "\"p99\": %s, \"p999\": %s}",
                  acc.count(), Num(acc.Mean()).c_str(),
                  Num(acc.Percentile(50)).c_str(),
                  Num(acc.Percentile(95)).c_str(),
                  Num(acc.Percentile(99)).c_str(),
                  Num(acc.Percentile(99.9)).c_str());
    series_.push_back({key, buf});
  }

  /// Serializes the report; `path` defaults from argv in the callers.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"name\": \"%s\",\n", Escape(name_).c_str());
    WriteSection(f, "config", config_, /*last=*/false);
    WriteSection(f, "metrics", metrics_, /*last=*/false);
    WriteSection(f, "series", series_, /*last=*/true);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string key;
    std::string json;  // pre-rendered value
  };

  static std::string Num(double v) {
    // NaN/inf have no JSON spelling; a report with a degenerate metric
    // must still parse in check_perf.py.
    if (!std::isfinite(v)) return "0";
    // The shortest text that parses back to the same double, so a gate
    // that compares exactly compares the measured bits.
    char buf[64];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static void WriteSection(std::FILE* f, const char* title,
                           const std::vector<Entry>& entries, bool last) {
    std::fprintf(f, "  \"%s\": {", title);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                   Escape(entries[i].key).c_str(), entries[i].json.c_str());
    }
    std::fprintf(f, "%s}%s\n", entries.empty() ? "" : "\n  ",
                 last ? "" : ",");
  }

  std::string name_;
  std::vector<Entry> config_;
  std::vector<Entry> metrics_;
  std::vector<Entry> series_;
};

/// Generates a particle dataset once and returns its key.
inline std::string StageParticles(const BenchDir& dir,
                                  std::uint64_t num_particles, int halos,
                                  std::uint64_t seed,
                                  const std::string& file = "pts.bin",
                                  double box_size = 1000.0) {
  mm::apps::DatagenConfig gen;
  gen.num_particles = num_particles;
  gen.halos = halos;
  gen.seed = seed;
  gen.box_size = box_size;
  // Keep halo density roughly constant as the dataset grows (weak
  // scaling): spread the halos AND their width with the box.
  gen.halo_sigma = 12.0 * box_size / 1000.0;
  std::string key = dir.Key("posix", file);
  auto truth = mm::apps::GenerateToBackend(gen, key);
  if (!truth.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 truth.status().ToString().c_str());
    std::exit(1);
  }
  return key;
}

/// A table cell; NaN marks a failed measurement (see MeasureSeconds).
inline std::string Fmt(double v, int prec = 4) {
  return std::isnan(v) ? "FAILED" : mm::FormatDouble(v, prec);
}

}  // namespace mmbench
