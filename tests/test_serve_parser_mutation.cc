// Seeded mutation fuzzing of the serving tier's untrusted-input parsers:
// the wire protocol (ParseRequest / ParseResponse) and the shard map
// (ShardMap::Parse, v1 and v2). Request lines come from any client, response
// lines from any shard, and map files from disk on every router reload.
// Every mutant of a small corpus of valid inputs must satisfy:
//
//   * no crash (and, in sanitizer builds, no sanitizer report);
//   * a rejected request or map carries a non-empty error;
//   * an accepted one is a serialization fixed point: serializing it,
//     parsing that and serializing again reproduces the same bytes.
//
// Mutations: byte overwrites (random or JSON-structural bytes), truncations
// and splices with slices of any corpus entry, stacked one to three deep.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/shard_map.h"

namespace ipin::serve {
namespace {

constexpr int kMutantsPerParser = 100000;

const std::vector<std::string>& RequestCorpus() {
  static const std::vector<std::string> corpus = {
      R"({"id": 7, "method": "query", "seeds": [1, 2, 3], "mode": "sketch"})",
      R"({"id": -3, "method": "query", "seeds": [0, 4294967295], )"
      R"("mode": "exact", "want_ranks": true, "deadline_ms": 50, )"
      R"("trace_id": "00c0ffee0badf00d", "parent_span": "1"})",
      R"({"seeds": [12], "mode": "auto"})",
      R"({"id": 1, "method": "topk", "k": 25, "deadline_ms": 5})",
      R"({"id": 2, "method": "health"})",
      R"({"id": 3, "method": "stats", "trace_id": "ABCDEF"})",
      R"({"id": 4, "method": "reload"})",
      R"({"id": 5, "method": "metrics", "format": "json"})",
      R"({"id": 6, "method": "debug"})",
      R"({"id": 8, "method": "reshard_status"})",
  };
  return corpus;
}

const std::vector<std::string>& ResponseCorpus() {
  static const std::vector<std::string> corpus = {
      R"({"id": 7, "status": "OK", "estimate": 123.4, "degraded": false, )"
      R"("epoch": 3, "trace_id": "00c0ffee0badf00d"})",
      R"({"id": 9, "status": "OK", "estimate": 2.5e3, "degraded": true, )"
      R"("ranks": "0a03ff00", "epoch": 1, "shards_total": 3, )"
      R"("shards_answered": 2, "coverage": 0.66})",
      R"({"id": 1, "status": "OK", "estimate": 0, "degraded": false, )"
      R"("topk": [[4, 99.5], [17, 12.25], [0, -0.0]], "epoch": 2})",
      R"({"id": 2, "status": "OVERLOADED", "epoch": 0, "retry_after_ms": 50})",
      R"({"id": 3, "status": "BAD_REQUEST", "epoch": 0, )"
      R"("error": "unknown \"method\"\n\tat \\ \u0001"})",
      R"({"id": 4, "status": "OK", "estimate": 1, "degraded": false, )"
      R"("epoch": 5, "info": {"queue_depth": 0.0, "epoch": 5, )"
      R"("win_qps": 1e6}})",
      R"({"id": 5, "status": "OK", "estimate": 0, "degraded": false, )"
      R"("epoch": 5, "payload": "# TYPE x counter\nx 1\n"})",
      R"({"id": 6, "status": "DEADLINE_EXCEEDED", "epoch": 2})",
      R"({"status": "UNAVAILABLE", "retry_after_ms": 10})",
      R"({"id": 8, "status": "INTERNAL", "error": "eval fault"})",
  };
  return corpus;
}

const std::vector<std::string>& ShardMapCorpus() {
  static const std::vector<std::string> corpus = {
      R"({"schema": "ipin.shardmap.v1", "virtual_points": 64, "shards": [)"
      R"({"name": "shard0", "unix_socket": "/tmp/ipin-shard0.sock"}, )"
      R"({"name": "shard1", "unix_socket": "/tmp/ipin-shard1.sock"}]})",
      R"({"schema": "ipin.shardmap.v1", "virtual_points": 8, "shards": [)"
      R"({"name": "a", "tcp_host": "127.0.0.1", "tcp_port": 7101, )"
      R"("mirror_unix_socket": "/tmp/a-mirror.sock"}, )"
      R"({"name": "b", "tcp_port": 7102, "mirror_tcp_host": "10.0.0.2", )"
      R"("mirror_tcp_port": 7202}]})",
      R"({"schema": "ipin.shardmap.v2", "virtual_points": 64, "shards": [)"
      R"({"name": "shard0", "unix_socket": "/tmp/ipin-shard0.sock", )"
      R"("index_file": "shard0.bin", "fingerprint": "crc32c:89ab12cd", )"
      R"("replicas": [{"unix_socket": "/tmp/ipin-shard0r.sock"}, )"
      R"({"tcp_host": "127.0.0.1", "tcp_port": 7300}]}, )"
      R"({"name": "shard1", "tcp_host": "127.0.0.1", "tcp_port": 7101, )"
      R"("mirror_unix_socket": "/tmp/ipin-shard1b.sock", )"
      R"("index_file": "shard1.bin", "fingerprint": "crc32c:00000001"}], )"
      R"("transition": {"virtual_points": 32, "shards": [)"
      R"({"name": "old0", "unix_socket": "/tmp/old0.sock", )"
      R"("replicas": [{"unix_socket": "/tmp/old0r.sock"}]}]}})",
  };
  return corpus;
}

// JSON-structural bytes: overwriting with these reaches far more parser
// states than uniform random bytes do.
constexpr std::string_view kStructuralBytes = "{}[]\":,\\ -+.0123456789eEu";

std::string Mutate(Rng* rng, const std::vector<std::string>& corpus,
                   std::string input) {
  const int steps = 1 + static_cast<int>(rng->NextBounded(3));
  for (int step = 0; step < steps; ++step) {
    switch (rng->NextBounded(4)) {
      case 0:  // overwrite one byte with a random value
        if (!input.empty()) {
          input[rng->NextBounded(input.size())] =
              static_cast<char>(rng->NextBounded(256));
        }
        break;
      case 1:  // overwrite one byte with a structural byte
        if (!input.empty()) {
          input[rng->NextBounded(input.size())] =
              kStructuralBytes[rng->NextBounded(kStructuralBytes.size())];
        }
        break;
      case 2:  // truncate
        input.resize(rng->NextBounded(input.size() + 1));
        break;
      default: {  // replace a range with a slice of any corpus entry
        const std::string& donor = corpus[rng->NextBounded(corpus.size())];
        const size_t from = rng->NextBounded(donor.size() + 1);
        const size_t len = rng->NextBounded(donor.size() - from + 1);
        const size_t at = rng->NextBounded(input.size() + 1);
        const size_t cut = rng->NextBounded(input.size() - at + 1);
        input.replace(at, cut, donor, from, len);
        break;
      }
    }
  }
  return input;
}

std::string_view StripNewline(std::string_view line) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  return line;
}

// Checks one input against the invariants; returns "" when they hold, else
// what broke. `parse` maps a line to an optional object (filling *error on
// rejection when `reports_errors`), `serialize` maps the object back.
// *accepted tells whether the input parsed.
template <typename Parse, typename Serialize>
std::string Check(const std::string& input, Parse parse, Serialize serialize,
                  bool reports_errors, bool* accepted) {
  std::string error;
  const auto first = parse(input, &error);
  *accepted = first.has_value();
  if (!first.has_value()) {
    return reports_errors && error.empty() ? "rejected without an error" : "";
  }
  const std::string once = serialize(*first);
  const auto second = parse(StripNewline(once), &error);
  if (!second.has_value()) {
    return "re-parse of '" + once + "' failed (" + error + ")";
  }
  const std::string twice = serialize(*second);
  if (twice != once) {
    return "not a fixed point: '" + once + "' became '" + twice + "'";
  }
  return "";
}

// Runs the pristine corpus, then kMutantsPerParser seeded mutants of it.
// Counts violations and reports the first, so a failure names a reproducing
// input instead of flooding the log. A mutator whose every mutant is
// rejected would never reach the fixed-point check, so a share of the
// mutants must parse.
template <typename Parse, typename Serialize>
void RunMutants(const std::vector<std::string>& corpus, uint64_t seed,
                Parse parse, Serialize serialize, bool reports_errors) {
  SetLogLevel(LogLevel::kError);
  bool accepted = false;
  for (const std::string& input : corpus) {
    EXPECT_EQ(Check(input, parse, serialize, reports_errors, &accepted), "")
        << input;
    EXPECT_TRUE(accepted) << "pristine corpus entry rejected: " << input;
  }
  Rng rng(seed);
  int violations = 0;
  int parsed = 0;
  std::string first;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string& base = corpus[rng.NextBounded(corpus.size())];
    const std::string mutant = Mutate(&rng, corpus, base);
    const std::string broken =
        Check(mutant, parse, serialize, reports_errors, &accepted);
    parsed += accepted ? 1 : 0;
    if (!broken.empty() && violations++ == 0) {
      first = broken + " on mutant: " + mutant;
    }
  }
  EXPECT_EQ(violations, 0) << "first violation: " << first;
  EXPECT_GT(parsed, kMutantsPerParser / 50) << "mutants that parsed";
}

TEST(ServeParserMutationTest, RequestParser) {
  RunMutants(
      RequestCorpus(), 1,
      [](std::string_view line, std::string* error) {
        return ParseRequest(line, error);
      },
      SerializeRequest, /*reports_errors=*/true);
}

TEST(ServeParserMutationTest, ResponseParser) {
  RunMutants(
      ResponseCorpus(), 2,
      [](std::string_view line, std::string*) { return ParseResponse(line); },
      SerializeResponse, /*reports_errors=*/false);
}

TEST(ServeParserMutationTest, ShardMapParser) {
  RunMutants(
      ShardMapCorpus(), 3,
      [](std::string_view json, std::string* error) {
        return ShardMap::Parse(json, error);
      },
      [](const ShardMap& map) { return map.ToJson(); },
      /*reports_errors=*/true);
}

}  // namespace
}  // namespace ipin::serve
