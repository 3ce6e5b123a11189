#include "ipin/graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/obs/metrics.h"

namespace ipin {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_io_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(GraphIoTest, LoadsBasicEdgeList) {
  WriteFile("# comment\n10 20 5\n20 30 7\n\n% another comment\n10 30 9\n");
  const auto graph = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->num_nodes(), 3u);  // remapped to dense ids
  EXPECT_EQ(graph->num_interactions(), 3u);
  EXPECT_TRUE(graph->is_sorted());
}

TEST_F(GraphIoTest, RemapsInOrderOfFirstAppearance) {
  WriteFile("100 7 1\n7 100 2\n");
  const auto graph = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(graph.has_value());
  // 100 -> 0, 7 -> 1.
  EXPECT_EQ(graph->interaction(0).src, 0u);
  EXPECT_EQ(graph->interaction(0).dst, 1u);
  EXPECT_EQ(graph->interaction(1).src, 1u);
  EXPECT_EQ(graph->interaction(1).dst, 0u);
}

TEST_F(GraphIoTest, SortsUnorderedInput) {
  WriteFile("0 1 9\n1 2 3\n");
  const auto graph = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->interaction(0).time, 3);
  EXPECT_EQ(graph->interaction(1).time, 9);
}

TEST_F(GraphIoTest, AcceptsCommaSeparated) {
  WriteFile("0,1,5\n1,2,6\n");
  const auto graph = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->num_interactions(), 2u);
}

TEST_F(GraphIoTest, KonectFormatIgnoresWeight) {
  WriteFile("1 2 1 100\n2 3 -1 200\n");
  const auto graph =
      LoadInteractionsFromFile(path_, EdgeListFormat::kKonect);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->num_interactions(), 2u);
  EXPECT_EQ(graph->interaction(0).time, 100);
  EXPECT_EQ(graph->interaction(1).time, 200);
}

TEST_F(GraphIoTest, RejectsMalformedLines) {
  WriteFile("0 1 5\nnot numbers here\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
}

TEST_F(GraphIoTest, RejectsTooFewFields) {
  WriteFile("0 1\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
}

TEST_F(GraphIoTest, RejectsNegativeNodeIds) {
  WriteFile("-1 2 5\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
}

TEST_F(GraphIoTest, RejectsTimestampsOutsideTheSketchRange) {
  // 2^55 is the first time the sketches cannot hold; nanosecond Unix times
  // (about 1.7e18) are far beyond it. Strict mode fails the load.
  WriteFile("0 1 5\n1 2 36028797018963968\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
  WriteFile("0 1 -36028797018963968\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
  WriteFile("0 1 1700000000000000000\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
}

TEST_F(GraphIoTest, AcceptsTimestampsAtTheRangeEdges) {
  WriteFile("0 1 -36028797018963967\n1 2 36028797018963967\n");
  const auto graph = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->interaction(0).time, kMinInteractionTime);
  EXPECT_EQ(graph->interaction(1).time, kMaxInteractionTime);
}

TEST_F(GraphIoTest, LenientModeSkipsOutOfRangeTimestamps) {
  WriteFile("0 1 5\n1 2 36028797018963968\n2 0 8\n");
  const auto graph = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->num_interactions(), 2u);
}

TEST_F(GraphIoTest, LenientModeSkipsMalformedLines) {
  obs::Counter* skipped =
      obs::MetricsRegistry::Global().GetCounter("graph.io.skipped_lines");
  const uint64_t before = skipped->Value();
  WriteFile("0 1 5\nnot numbers here\n1 2 6\n0 1\n-3 2 7\n2 0 8\n");
  const auto graph = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->num_interactions(), 3u);  // the three well-formed lines
#ifdef IPIN_OBS_DISABLED
  EXPECT_EQ(skipped->Value() - before, 0u);
#else
  EXPECT_EQ(skipped->Value() - before, 3u);
#endif
}

TEST_F(GraphIoTest, LenientModeSkipsTimestampRegressions) {
  // A timestamp far in the past mid-stream is treated as damage in lenient
  // mode; strict mode keeps it (the post-load sort handles unsorted files).
  WriteFile("0 1 100\n1 2 3\n2 0 200\n");
  const auto lenient = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->num_interactions(), 2u);
  const auto strict = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(strict.has_value());
  EXPECT_EQ(strict->num_interactions(), 3u);
}

TEST_F(GraphIoTest, LenientModeReportsSkippedLineNumbers) {
  // Debug log carries the line number and reason of each early skip, so a
  // damaged file can be inspected without a rerun under a debugger.
  SetLogLevel(LogLevel::kDebug);
  std::vector<std::string> debug_lines;
  SetLogSink([&debug_lines](LogLevel level, const std::string& message) {
    if (level == LogLevel::kDebug) debug_lines.push_back(message);
  });
  WriteFile("0 1 5\nbroken\n1 2 6\n2 x 7\n2 0 8\n");
  const auto graph = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  SetLogSink(nullptr);
  SetLogLevel(LogLevel::kError);
  ASSERT_TRUE(graph.has_value());

  ASSERT_EQ(debug_lines.size(), 2u);
  EXPECT_NE(debug_lines[0].find(":2: skipped (too few fields)"),
            std::string::npos)
      << debug_lines[0];
  EXPECT_NE(debug_lines[1].find(":4: skipped (unparsable or negative field)"),
            std::string::npos)
      << debug_lines[1];
}

TEST_F(GraphIoTest, SkippedLineReportIsCappedAtTen) {
  SetLogLevel(LogLevel::kDebug);
  std::vector<std::string> debug_lines;
  SetLogSink([&debug_lines](LogLevel level, const std::string& message) {
    if (level == LogLevel::kDebug) debug_lines.push_back(message);
  });
  std::string content = "0 1 5\n";
  for (int i = 0; i < 25; ++i) content += "garbage line\n";
  WriteFile(content);
  const auto graph = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  SetLogSink(nullptr);
  SetLogLevel(LogLevel::kError);
  ASSERT_TRUE(graph.has_value());

  // 10 per-line records plus one "... and N more" trailer.
  ASSERT_EQ(debug_lines.size(), 11u);
  EXPECT_NE(debug_lines[0].find(":2: skipped"), std::string::npos);
  EXPECT_NE(debug_lines[9].find(":11: skipped"), std::string::npos);
  EXPECT_NE(debug_lines[10].find("and 15 more skipped lines"),
            std::string::npos)
      << debug_lines[10];
}

TEST_F(GraphIoTest, StrictModeStaysTheDefaultAndFails) {
  WriteFile("0 1 5\nnot numbers here\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
  EXPECT_FALSE(LoadInteractionsFromFile(path_, EdgeListFormat::kSrcDstTime,
                                        ParseMode::kStrict)
                   .has_value());
}

TEST_F(GraphIoTest, LenientModeRejectsFullyUnusableFile) {
  WriteFile("total garbage\nmore garbage\n");
  EXPECT_FALSE(LoadInteractionsFromFile(path_, EdgeListFormat::kSrcDstTime,
                                        ParseMode::kLenient)
                   .has_value());
}

TEST_F(GraphIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      LoadInteractionsFromFile("/nonexistent/definitely/missing.txt")
          .has_value());
}

TEST_F(GraphIoTest, SaveLoadRoundtrip) {
  InteractionGraph g;
  g.AddInteraction(0, 1, 10);
  g.AddInteraction(1, 2, 20);
  g.AddInteraction(2, 0, 30);
  ASSERT_TRUE(SaveInteractionsToFile(g, path_));
  const auto loaded = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_interactions(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->interaction(i).time, g.interaction(i).time);
  }
}

TEST_F(GraphIoTest, DimacsRoundtrip) {
  const StaticGraph g =
      StaticGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ASSERT_TRUE(SaveDimacs(g, path_));
  const auto loaded = LoadDimacs(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), 4u);
  EXPECT_EQ(loaded->num_edges(), 4u);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(3, 0));
}

TEST_F(GraphIoTest, DimacsRejectsArcBeforeHeader) {
  WriteFile("a 1 2 1\np sp 3 1\n");
  EXPECT_FALSE(LoadDimacs(path_).has_value());
}

TEST_F(GraphIoTest, DimacsRejectsOutOfRangeArc) {
  WriteFile("p sp 2 1\na 1 5 1\n");
  EXPECT_FALSE(LoadDimacs(path_).has_value());
}

TEST_F(GraphIoTest, DimacsIgnoresComments) {
  WriteFile("c hello\np sp 2 1\nc mid\na 1 2 1\n");
  const auto loaded = LoadDimacs(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_edges(), 1u);
}

TEST_F(GraphIoTest, DimacsRejectsMissingHeader) {
  WriteFile("c only comments\n");
  EXPECT_FALSE(LoadDimacs(path_).has_value());
}

}  // namespace
}  // namespace ipin
