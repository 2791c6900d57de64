// Bench report edge cases: the one emitter behind every `mmbench` report
// prints a row's cells in the table and writes the same numbers to the
// JSON report, and reports summarizing degenerate runs (NaN/inf metrics
// from empty accumulators or zero-duration measurements) must still emit
// valid JSON, because ci/check_perf.py parses every BENCH_*.json with a
// strict parser.
#include "../bench/common.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "mm_test_bench_report.json")
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string Json(const mmbench::Report& report) {
    EXPECT_TRUE(report.WriteJson("edge", path_));
    return ReadAll(path_);
  }
  std::string path_;
};

TEST_F(BenchReportTest, RowCellsRenderOnceAsTableAndJson) {
  mmbench::Report report({"row", "virtual_ns", "note"});
  report.intro = "title\n";
  report.Row("read", {"read", 1.5, "text only"});
  report.Metric("flatness", mmbench::Cell(1.25, 2));
  report.outro = "end\n";
  const std::string table = report.Render(/*csv=*/false);
  EXPECT_EQ(table.rfind("title\n", 0), 0u) << table;
  EXPECT_NE(table.find("1.5000"), std::string::npos) << table;
  EXPECT_NE(table.find("text only"), std::string::npos) << table;
  EXPECT_NE(table.find("flatness"), std::string::npos) << table;
  EXPECT_NE(table.find("1.25"), std::string::npos) << table;
  EXPECT_EQ(table.substr(table.size() - 4), "end\n") << table;
  EXPECT_NE(report.Render(/*csv=*/true).find("read,1.5000,text only\n"),
            std::string::npos);
  const std::string json = Json(report);
  EXPECT_NE(json.find("\"name\": \"edge\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"read.virtual_ns\": 1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"flatness\": 1.25"), std::string::npos) << json;
  // Text cells stay out of the JSON.
  EXPECT_EQ(json.find("read.note"), std::string::npos) << json;
}

TEST_F(BenchReportTest, FailedRepetitionsAreRecorded) {
  mmbench::Report report({"config", "runtime_s"});
  const double t = mmbench::MeasureSeconds(report, 2, [] {
    mm::comm::RunResult r;
    r.error = "simulated failure";
    return r;
  });
  report.Row("run", {"run", t});
  EXPECT_EQ(report.failed(), 1);
  EXPECT_NE(report.Render(false).find("FAILED"), std::string::npos);
  EXPECT_NE(Json(report).find("\"failed\": 1"), std::string::npos);
}

TEST_F(BenchReportTest, NonFiniteMetricsSerializeAsZero) {
  mmbench::Report report;
  // Metric names deliberately avoid the substrings "nan"/"inf" so the
  // bare-token scans below can only match serialized VALUES.
  report.Metric("from_empty_acc", std::nan(""));
  report.Metric("from_zero_div", std::numeric_limits<double>::infinity());
  report.Metric("from_neg_div", -std::numeric_limits<double>::infinity());
  report.Metric("fine_metric", 3.5);
  const std::string json = Json(report);
  // %g would render "nan"/"inf", which no JSON parser accepts.
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"from_empty_acc\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fine_metric\": 3.5"), std::string::npos) << json;
}

TEST_F(BenchReportTest, DoublesRoundTripInShortestForm) {
  // Exact gates compare the measured bits, so every double must parse
  // back to itself, and in its shortest spelling.
  mmbench::Report report;
  report.Metric("virtual_ns", 1.5499999998780392);
  report.Metric("tenth", 0.1);
  report.Metric("tiny", 1e-300);
  const std::string json = Json(report);
  EXPECT_NE(json.find("\"virtual_ns\": 1.5499999998780392"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tenth\": 0.1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tiny\": 1e-300"), std::string::npos) << json;
}

TEST_F(BenchReportTest, KeysAreEscaped) {
  mmbench::Report report;
  report.Config("back\\slash", 2.0);
  report.Metric("q\"uote", 1.0);
  const std::string json = Json(report);
  EXPECT_NE(json.find("\"back\\\\slash\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"q\\\"uote\": 1"), std::string::npos) << json;
}

}  // namespace
