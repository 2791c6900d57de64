// Shared pieces of the `mmbench` benches: the report every bench returns
// (rows of cells `mmbench` prints as a table and writes as
// BENCH_<name>.json), repeated runs with averaging (the paper runs each
// experiment 3 times and reports the average), dataset staging, and
// scaled-down experiment geometry (documented per figure in EXPERIMENTS.md).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "mm/apps/datagen.h"
#include "mm/mega_mmap.h"
#include "mm/util/stats.h"

namespace mmbench {

/// The flags of `mmbench NAME [OUT.json] [--reps N] [--csv] [--trace FILE]`
/// a bench reads.
struct Args {
  int reps = 3;            // repetitions per configuration (paper: 3)
  std::string trace_path;  // ledger only: also write a Perfetto trace here
};

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

/// printf into a std::string.
__attribute__((format(printf, 1, 2))) inline std::string Format(
    const char* fmt, ...) {
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  std::string out(std::vsnprintf(nullptr, 0, fmt, ap), '\0');
  va_end(ap);
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

/// A number as table text; NaN marks a failed measurement (MeasureSeconds).
inline std::string Fmt(double v, int prec = 4) {
  return std::isnan(v) ? "FAILED" : mm::FormatDouble(v, prec);
}

/// One table cell: the text the table prints and, when numeric, the value
/// the JSON report carries for it.
struct Cell {
  Cell(const char* s) : text(s) {}
  Cell(std::string s) : text(std::move(s)) {}
  Cell(double v, int prec = 4) : text(Fmt(v, prec)), value(v), numeric(true) {}
  Cell(std::string s, double v) : text(std::move(s)), value(v), numeric(true) {}

  std::string text;
  double value = 0;
  bool numeric = false;
};

/// An oracle verdict: "yes" / "NO" in the table, 1 / 0 in the report.
inline Cell Flag(bool ok) { return Cell(ok ? "yes" : "NO", ok ? 1.0 : 0.0); }

/// What one bench measured. `mmbench` renders it once: `intro`, the row
/// table, a metric/value table of the scalar metrics and `outro` on stdout,
/// and the same numbers as BENCH_<name>.json, read by ci/check_perf.py:
///
///   {
///     "name":    "<bench>",
///     "failed":  <failed repetitions>,
///     "config":  { numeric knobs of this run },
///     "metrics": { "<row key>.<column>": v for each numeric row cell,
///                  "<metric>": v for each scalar metric }
///   }
class Report {
 public:
  explicit Report(std::vector<std::string> columns = {})
      : columns_(columns), table_(std::move(columns)) {}

  void Config(const std::string& key, double value) {
    config_.push_back({key, Num(value)});
  }

  /// A table row; each numeric cell becomes the metric `key.<column>`.
  void Row(const std::string& key, const std::vector<Cell>& cells) {
    MM_CHECK(cells.size() == columns_.size());
    std::vector<std::string> text;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      text.push_back(cells[i].text);
      if (cells[i].numeric) {
        metrics_.push_back({key + "." + columns_[i], Num(cells[i].value)});
      }
    }
    table_.AddRow(std::move(text));
  }

  /// A scalar result: one line of the metric/value table.
  void Metric(const std::string& key, Cell cell) {
    if (cell.numeric) metrics_.push_back({key, Num(cell.value)});
    scalars_.push_back({key, std::move(cell.text)});
  }

  /// Records a failed repetition; `mmbench` then exits 1.
  void Fail(const std::string& why) {
    std::fprintf(stderr, "bench run failed: %s\n", why.c_str());
    ++failed_;
  }
  int failed() const { return failed_; }

  std::string intro;  // printed before the tables
  std::string outro;  // printed after them

  std::string Render(bool csv) const {
    std::string out = intro + (columns_.empty() ? "" : table_.Render(csv));
    if (!scalars_.empty()) {
      mm::TablePrinter table({"metric", "value"});
      for (const auto& [key, text] : scalars_) table.AddRow({key, text});
      out += (columns_.empty() ? "" : "\n") + table.Render(csv);
    }
    return out + outro;
  }

  bool WriteJson(const std::string& name, const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"failed\": %d,\n",
                 Escape(name).c_str(), failed_);
    WriteSection(f, "config", config_, /*last=*/false);
    WriteSection(f, "metrics", metrics_, /*last=*/true);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
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

  std::vector<std::string> columns_;
  mm::TablePrinter table_;
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<Entry> config_;
  std::vector<Entry> metrics_;
  int failed_ = 0;
};

/// One measured configuration: runs `body` `reps` times, returns the mean
/// virtual runtime in seconds. `body` returns the job RunResult. With
/// reps > 1 it prints the spread to stderr: one line per configuration with
/// the mean and the coefficient of variation (stddev / mean).
///
/// A simulated OOM with `oom` given sets `*oom` and returns 0 (the caller
/// prints its own OOM-killed cell). Any other failed repetition, or an OOM
/// nobody asked about, is recorded in `report` and returns NaN, which Fmt
/// prints as FAILED.
inline double MeasureSeconds(Report& report, int reps,
                             const std::function<mm::comm::RunResult()>& body,
                             bool* oom = nullptr) {
  mm::StatAccumulator acc;
  if (oom != nullptr) *oom = false;
  for (int r = 0; r < reps; ++r) {
    auto result = body();
    if (result.oom && oom != nullptr) {
      *oom = true;
      return 0.0;
    }
    if (!result.ok()) {
      report.Fail(result.oom ? "OOM" : result.error);
      return std::nan("");
    }
    acc.Add(result.max_time);
  }
  if (reps > 1) {
    std::fprintf(stderr, "spread: %d reps, mean %.6g s, cv %.4f\n", reps,
                 acc.Mean(), acc.Mean() > 0 ? acc.Stddev() / acc.Mean() : 0.0);
  }
  return acc.Mean();
}

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

// The benches, one per paper figure, ablation or drill; bench/mmbench.cc
// maps each name to its function.
Report AblationCoherence(const Args& args);
Report AblationPagesize(const Args& args);
Report AblationPrefetch(const Args& args);
Report Bfs(const Args& args);
Report CkptRecovery(const Args& args);
Report FaultTolerance(const Args& args);
Report Fig4Loc(const Args& args);
Report Fig5WeakScaling(const Args& args);
Report Fig6Resolution(const Args& args);
Report Fig7Tiering(const Args& args);
Report Fig8MemScaling(const Args& args);
Report Ledger(const Args& args);
Report NodeFailure(const Args& args);
Report Ycsb(const Args& args);

}  // namespace mmbench
