// Self-tests of the benchmark's own pieces: input determinism, the quantile
// and rung rules, reply scoring, span accounting, and an end-to-end pass of
// the open-loop generator against a small in-process server.
//
//   python3 perfbench/run.py --selftest

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "ipin/core/irs_approx.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/server.h"
#include "pipeline.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

void TestScheduleIsDeterministicPerSeed() {
  Rng a(StreamSeed(42, 1)), b(StreamSeed(42, 1)), c(StreamSeed(43, 1));
  const auto x = PoissonArrivals(10'000, 0.5, &a);
  const auto y = PoissonArrivals(10'000, 0.5, &b);
  const auto z = PoissonArrivals(10'000, 0.5, &c);
  EXPECT(x == y);
  EXPECT(x != z);
  // 5,000 expected arrivals; 5 standard deviations is ~354.
  EXPECT(std::abs(static_cast<double>(x.size()) - 5000.0) < 354.0);
  for (size_t i = 1; i < x.size(); ++i) EXPECT(x[i] > x[i - 1]);
}

void TestZipfIsDeterministicAndSkewed() {
  const ZipfSampler s1(1000, 1.1, 7), s2(1000, 1.1, 7), s3(1000, 1.1, 8);
  Rng r1(5), r2(5), r3(5);
  std::vector<int> counts(1000, 0);
  bool differs = false;
  for (int i = 0; i < 20'000; ++i) {
    const ipin::NodeId a = s1.Sample(&r1);
    EXPECT(a == s2.Sample(&r2));
    differs |= a != s3.Sample(&r3);
    ++counts[a];
  }
  EXPECT(differs);  // another seed permutes the keys differently
  // The hottest rank gets the most draws, about 1/H(1000, 1.1) ~ 17%.
  const int hottest = counts[s1.NodeOfRank(0)];
  for (int c : counts) EXPECT(c <= hottest);
  EXPECT(hottest > 2'500 && hottest < 4'500);
}

void TestHighestSupportedQuantile() {
  EXPECT(HighestSupportedQuantile(19) == 0.0);
  EXPECT(HighestSupportedQuantile(20) == 0.5);
  EXPECT(HighestSupportedQuantile(999) == 0.9);
  EXPECT(HighestSupportedQuantile(1000) == 0.99);
  EXPECT(HighestSupportedQuantile(9'999) == 0.99);
  EXPECT(HighestSupportedQuantile(10'000) == 0.999);
  EXPECT(QuantileSupported(0.99, 1000));
  EXPECT(!QuantileSupported(0.99, 999));
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(Quantile(v, 0.5) == 50);
  EXPECT(Quantile(v, 0.99) == 99);
  EXPECT(Median({3, 1, 2}) == 2);
}

GenReply Reply(ipin::serve::StatusCode status, double estimate, int64_t latency_us) {
  GenReply r;
  r.sent = r.answered = true;
  r.status = status;
  r.estimate = estimate;
  r.latency_ns = latency_us * 1000;
  return r;
}

void TestJudge() {
  using ipin::serve::StatusCode;
  EXPECT(Judge(Reply(StatusCode::kOk, 12.5, 400), 12.5, 1000) == Verdict::kGood);
  EXPECT(Judge(Reply(StatusCode::kOk, 12.5, 1500), 12.5, 1000) == Verdict::kLate);
  EXPECT(Judge(Reply(StatusCode::kOverloaded, 0.0, 10), 12.5, 1000) ==
         Verdict::kFailed);
  EXPECT(Judge(Reply(StatusCode::kDeadlineExceeded, 0.0, 10), 12.5, 1000) ==
         Verdict::kFailed);
  GenReply missing;
  EXPECT(Judge(missing, 12.5, 1000) == Verdict::kFailed);
  GenReply degraded = Reply(StatusCode::kOk, 12.5, 10);
  degraded.degraded = true;
  EXPECT(Judge(degraded, 12.5, 1000) == Verdict::kFailed);
  // A perturbed answer, even by one ulp, fails the output check.
  EXPECT(Judge(Reply(StatusCode::kOk, std::nextafter(12.5, 13.0), 10), 12.5, 1000) ==
         Verdict::kWrong);
}

RungOutcome Sending(double rate, size_t sent, size_t good, size_t outstanding = 2) {
  RungOutcome r;
  r.rate_qps = rate;
  r.sent = sent;
  r.good = good;
  r.outstanding_at_end = outstanding;
  return r;
}

void TestRungRules() {
  EXPECT(RungPasses(Sending(10'000, 1000, 990)));
  EXPECT(!RungPasses(Sending(10'000, 1000, 989)));  // one shed reply too many
  EXPECT(!RungPasses(Sending(10'000, 0, 0)));       // never sent
  RungOutcome behind = Sending(10'000, 1000, 1000);
  behind.late_p99_us = kMaxLateUs + 1;  // the generator fell behind
  EXPECT(!SendingValid(behind));
  EXPECT(!RungPasses(behind));
  // Little's law allowance: 10k qps x 1 ms = 10, floored at 16.
  EXPECT(!BacklogGrowing(Sending(10'000, 1000, 1000, 16)));
  EXPECT(BacklogGrowing(Sending(10'000, 1000, 1000, 17)));
  EXPECT(!BacklogGrowing(Sending(80'000, 1000, 1000, 80)));
  EXPECT(BacklogGrowing(Sending(80'000, 1000, 1000, 81)));
  EXPECT(!RungPasses(Sending(80'000, 1000, 1000, 200)));

  const std::vector<RungOutcome> two_of_three = {
      Sending(20'000, 1000, 1000), Sending(20'000, 1000, 900), Sending(20'000, 1000, 995)};
  const std::vector<RungOutcome> one_of_three = {
      Sending(28'000, 1000, 1000), Sending(28'000, 1000, 900), Sending(28'000, 0, 0)};
  const std::vector<RungOutcome> all = {
      Sending(40'000, 1000, 1000), Sending(40'000, 1000, 1000), Sending(40'000, 1000, 999)};
  EXPECT(MajorityPasses(two_of_three));
  EXPECT(!MajorityPasses(one_of_three));
  // The highest passing rung wins even above a failed one.
  EXPECT(MaxPassingRate({two_of_three, one_of_three, all}) == 40'000);
  EXPECT(MaxPassingRate({two_of_three, one_of_three}) == 20'000);
  EXPECT(MaxPassingRate({one_of_three}) == 0.0);
  const auto rates = RateLadder(10'000, 80'000, std::sqrt(2.0));
  EXPECT(rates.size() == 7);
  EXPECT(std::abs(rates.back() - 80'000) < 1.0);
}

void TestSelfTimes() {
  SpanRecorder spans(true);
  const uint64_t parent = spans.Add("outer", 0, 1, 100, 200);
  spans.Add("inner", parent, 1, 120, 150);
  spans.Add("inner", parent, 1, 140, 170);  // overlaps the first child
  spans.Add("other", 0, 2, 300, 350);
  double outer = -1, inner = -1;
  for (const auto& [layer, seconds] : spans.SelfSeconds()) {
    if (layer == "outer") outer = seconds;
    if (layer == "inner") inner = seconds;
  }
  EXPECT(std::abs(outer - 50e-9) < 1e-15);  // 100 ns minus 50 ns covered
  EXPECT(std::abs(inner - 60e-9) < 1e-15);
  // [0, 400): covered 100 + 50 ns -> 250 ns unattributed.
  EXPECT(std::abs(spans.UnattributedSeconds(0, 400) - 250e-9) < 1e-15);
  SpanRecorder off(false);
  EXPECT(off.Begin("x") == 0);
  EXPECT(off.spans().empty());
}

void TestDigestAndReference() {
  ipin::InteractionGraph graph = ipin::GenerateUniformRandomNetwork(300, 3000, 1000, 3);
  const ipin::IrsApprox index = ipin::IrsApprox::Compute(graph, 100);
  std::vector<ipin::NodeId> seeds = {1, 5, 9, 200, 201};
  EXPECT(ReferenceUnion(index, seeds) == index.EstimateUnionSize(seeds));
  const double coverage = index.EstimateUnionSize(seeds);
  EXPECT(SelectionDigest(seeds, coverage) == SelectionDigest(seeds, coverage));
  EXPECT(SelectionDigest(seeds, coverage) !=
         SelectionDigest(seeds, std::nextafter(coverage, 1e9)));
  std::vector<ipin::NodeId> swapped = {5, 1, 9, 200, 201};
  EXPECT(SelectionDigest(seeds, coverage) != SelectionDigest(swapped, coverage));
}

// The generator against a real server: every reply arrives, is correlated by
// id, and is bit-equal to the in-process estimate.
void TestOpenLoopAgainstServer() {
  ipin::InteractionGraph graph = ipin::GenerateUniformRandomNetwork(500, 5000, 1000, 4);
  auto index = std::make_shared<ipin::IrsApprox>(ipin::IrsApprox::Compute(graph, 100));
  index->Seal();
  ipin::serve::IndexManager manager("");
  manager.Install(index);
  ipin::serve::ServerOptions options;
  options.unix_socket_path = "perfbench-selftest-" + std::to_string(::getpid()) + ".sock";
  ipin::serve::OracleServer server(&manager, options);
  EXPECT(server.Start());
  const ZipfSampler keys(500, 1.1, 9);
  Rng rng(11);
  std::vector<GenRequest> requests;
  for (const double t : PoissonArrivals(2'000, 0.2, &rng)) {
    GenRequest r;
    r.due_ns = static_cast<int64_t>(t * 1e9);
    r.seeds.resize(1 + rng.Below(8));
    for (auto& u : r.seeds) u = keys.Sample(&rng);
    requests.push_back(std::move(r));
  }
  const GenOutcome outcome = RunOpenLoop(requests, options.unix_socket_path);
  // A capped sending never has more than the cap in flight on a connection.
  const GenOutcome capped = RunOpenLoop(requests, options.unix_socket_path, 1);
  server.Shutdown();
  EXPECT(capped.inflight_max == 1);
  ::unlink(options.unix_socket_path.c_str());
  EXPECT(outcome.transport_errors == 0);
  size_t answered = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const GenReply& r = outcome.replies[i];
    if (!r.answered) continue;
    ++answered;
    EXPECT(Judge(r, index->EstimateUnionSize(requests[i].seeds), 1e9) == Verdict::kGood);
  }
  EXPECT(answered == requests.size());
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestScheduleIsDeterministicPerSeed();
  TestZipfIsDeterministicAndSkewed();
  TestHighestSupportedQuantile();
  TestJudge();
  TestRungRules();
  TestSelfTimes();
  TestDigestAndReference();
  TestOpenLoopAgainstServer();
  std::printf("perfbench selftest: %s (%d failures)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
