// Robustness fuzzing of the text/binary parsers: random byte soup must
// never crash the loaders — they either parse or cleanly return nullopt.

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/core/checkpoint.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/graph_io.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_fuzz_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

std::string RandomBytes(Rng* rng, size_t length, bool printable) {
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (printable) {
      // Digits, whitespace, minus signs, newlines — parser-adjacent soup.
      static const char kAlphabet[] = "0123456789 -\t\n#%abcxyz.";
      s.push_back(kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]);
    } else {
      s.push_back(static_cast<char>(rng->NextUint64() & 0xff));
    }
  }
  return s;
}

TEST_F(IoFuzzTest, EdgeListLoaderSurvivesTextSoup) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    WriteBytes(RandomBytes(&rng, 1 + rng.NextBounded(2000), true));
    const auto result = LoadInteractionsFromFile(path_);
    if (result.has_value()) {
      EXPECT_TRUE(result->is_sorted());  // contract holds when it parses
    }
  }
}

TEST_F(IoFuzzTest, EdgeListLoaderSurvivesBinarySoup) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    WriteBytes(RandomBytes(&rng, 1 + rng.NextBounded(4000), false));
    (void)LoadInteractionsFromFile(path_);  // must not crash
  }
}

TEST_F(IoFuzzTest, DimacsLoaderSurvivesSoup) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup = "p sp 5 3\n";  // sometimes give it a valid header
    if (trial % 2 == 0) soup.clear();
    soup += RandomBytes(&rng, 1 + rng.NextBounded(1000), true);
    WriteBytes(soup);
    (void)LoadDimacs(path_);  // must not crash
  }
}

TEST_F(IoFuzzTest, IndexLoaderSurvivesBinarySoup) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::string soup;
    if (trial % 3 == 0) soup += "IPINIDX1";  // valid magic, garbage body
    soup += RandomBytes(&rng, 1 + rng.NextBounded(3000), false);
    WriteBytes(soup);
    EXPECT_FALSE(LoadInfluenceIndex(path_).has_value());
  }
}

// Randomized corruption of a *valid* saved index: for every bit flip or
// truncation, the load must either reject the file or serve only sections
// whose checksums verify — a node estimate is the saved value or 0 (its
// section was dropped), never silently-wrong data.
TEST_F(IoFuzzTest, SavedIndexSurvivesRandomCorruption) {
  const InteractionGraph g = GenerateUniformRandomNetwork(300, 900, 2000, 21);
  const IrsApprox index = IrsApprox::Compute(g, 100, {/*precision=*/4});
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  std::string pristine;
  {
    std::ifstream in(path_, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }

  Rng rng(6);
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = pristine;
    if (trial % 2 == 0) {
      corrupted[rng.NextBounded(corrupted.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
    } else {
      corrupted.resize(rng.NextBounded(corrupted.size()));
    }
    WriteBytes(corrupted);

    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    if (!result.usable()) continue;  // clean rejection is always fine
    ASSERT_EQ(result.index->num_nodes(), index.num_nodes()) << trial;
    for (NodeId u = 0; u < index.num_nodes(); ++u) {
      const double got = result.index->EstimateIrsSize(u);
      const double want = index.EstimateIrsSize(u);
      EXPECT_TRUE(got == want || got == 0.0)
          << "trial " << trial << " node " << u << ": silently-wrong estimate "
          << got << " (saved " << want << ")";
    }
  }
}

// Randomized corruption of checkpoint files: a resumed build must never
// crash and must always end bit-identical to an uninterrupted run (a
// damaged checkpoint is skipped, worst case falling back to a fresh scan).
TEST_F(IoFuzzTest, CheckpointResumeSurvivesRandomCorruption) {
  namespace fs = std::filesystem;
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 160, 400, 22);
  const IrsExact want = IrsExact::Compute(g, 60);

  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/32, /*keep=*/3};
  (void)ComputeIrsExactCheckpointed(g, 60, options);
  std::vector<std::pair<std::string, std::string>> pristine;  // path, bytes
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    pristine.emplace_back(entry.path().string(),
                          std::string((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>()));
  }
  ASSERT_FALSE(pristine.empty());

  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    // Restore all files, then damage a random subset.
    for (const auto& [p, bytes] : pristine) {
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    for (const auto& [p, bytes] : pristine) {
      if (rng.NextBounded(2) == 0) continue;
      std::string corrupted = bytes;
      if (rng.NextBounded(2) == 0) {
        corrupted[rng.NextBounded(corrupted.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      } else {
        corrupted.resize(rng.NextBounded(corrupted.size()));
      }
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    const IrsExact got = ComputeIrsExactCheckpointed(g, 60, options);
    for (NodeId u = 0; u < want.num_nodes(); ++u) {
      ASSERT_EQ(got.Summary(u).size(), want.Summary(u).size())
          << "trial " << trial << " node " << u;
      for (const auto& [v, t] : want.Summary(u)) {
        const auto it = got.Summary(u).find(v);
        ASSERT_NE(it, got.Summary(u).end()) << trial;
        ASSERT_EQ(it->second, t) << trial;
      }
    }
    // The rerun may have rewritten checkpoints; re-list for the next round.
    pristine.clear();
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      pristine.emplace_back(entry.path().string(),
                            std::string((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>()));
    }
  }
  fs::remove_all(dir);
}

TEST(VhllFuzzTest, DeserializeSurvivesBitFlips) {
  // A valid blob with one flipped byte must either fail cleanly or yield a
  // sketch that still satisfies its invariants.
  VersionedHll sketch(5, 3);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    sketch.Add(rng.NextUint64(), static_cast<Timestamp>(rng.NextBounded(50)));
  }
  std::string blob;
  sketch.Serialize(&blob);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = blob;
    const size_t pos = rng.NextBounded(corrupted.size());
    corrupted[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    size_t offset = 0;
    const auto result = VersionedHll::Deserialize(corrupted, &offset);
    if (result.has_value()) {
      EXPECT_TRUE(result->CheckInvariants());
    }
  }
}

}  // namespace
}  // namespace ipin
