// Ablation harness for the design choices called out in DESIGN.md:
//   A. CELF lazy queue vs the paper's Algorithm 4 sorted scan
//      (same seeds; how many gain evaluations does each need?).
//   B. Lazy sketch allocation (only senders get a sketch) vs eager.
//   C. vHLL domination pruning: undominated entries vs total insertions.
//   D. Seed-set transfer across propagation models: IRS seeds evaluated
//      under TCIC *and* TCLT (are the seeds model-independent, as the
//      data-driven framing claims?).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "ipin/common/timer.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_approx_bottom_k.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/tcic.h"
#include "ipin/core/tclt.h"
#include "ipin/eval/metrics.h"
#include "ipin/eval/table.h"

namespace ipin {
namespace {

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  SetupBenchObservability(flags, "ablation_design");
  const double scale = flags.GetDouble("scale", 0.01);
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  PrintBanner("Ablations: design choices of the IRS pipeline", flags, scale);

  // ---- A + B + C on every dataset -------------------------------------
  TablePrinter structure("A/B/C — greedy strategy, allocation, pruning");
  structure.SetHeader({"Dataset", "greedy evals", "CELF evals", "senders",
                       "nodes", "entries", "inserts", "saved %"});

  for (const std::string& name : DatasetsFromFlags(flags)) {
    const InteractionGraph graph = LoadBenchDataset(name, scale);
    const Duration window = graph.WindowFromPercent(10.0);
    IrsApproxOptions options;
    options.precision = 9;
    IrsApprox irs = IrsApprox::Compute(graph, window, options);
    irs.Seal();
    const SketchInfluenceOracle oracle(&irs);

    const SeedSelection greedy = SelectSeedsGreedy(oracle, k);
    const SeedSelection celf = SelectSeedsCelf(oracle, k);

    // C: how much does domination pruning discard? Compare the retained
    // entries against the total AddEntry volume (direct adds + merges).
    const size_t retained = irs.TotalSketchEntries();
    const size_t inserts = irs.TotalInsertAttempts();
    const double saved =
        inserts == 0 ? 0.0
                     : 100.0 * (1.0 - static_cast<double>(retained) /
                                          static_cast<double>(inserts));

    structure.AddRow({name, TablePrinter::Cell(greedy.gain_evaluations),
                      TablePrinter::Cell(celf.gain_evaluations),
                      TablePrinter::Cell(irs.NumAllocatedSketches()),
                      TablePrinter::Cell(irs.num_nodes()),
                      TablePrinter::Cell(retained),
                      TablePrinter::Cell(inserts),
                      TablePrinter::Cell(saved, 1)});
  }
  structure.Print();
  std::printf(
      "\nA: compare the evaluation counts of CELF and Algorithm 4 (equal "
      "seeds for submodular oracles; sketch gains may diverge).\nB: "
      "'senders'/'nodes' is the fraction of sketches lazy allocation "
      "actually materializes.\nC: 'entries' vs 'inserts' shows what "
      "domination pruning keeps.\n\n");

  // ---- D: model transfer ----------------------------------------------
  TablePrinter transfer("D — IRS seed quality under TCIC vs TCLT");
  transfer.SetHeader({"Dataset", "TCIC spread", "TCLT spread",
                      "TCIC random", "TCLT random"});
  for (const std::string& name : DatasetsFromFlags(flags)) {
    const InteractionGraph graph = LoadBenchDataset(name, scale);
    const Duration window = graph.WindowFromPercent(10.0);
    IrsApproxOptions options;
    options.precision = 9;
    IrsApprox irs = IrsApprox::Compute(graph, window, options);
    irs.Seal();
    const SketchInfluenceOracle oracle(&irs);
    const SeedSelection seeds = SelectSeedsCelf(oracle, k);

    Rng rng(777);
    std::vector<NodeId> random_seeds;
    for (const uint64_t x :
         rng.SampleWithoutReplacement(graph.num_nodes(), k)) {
      random_seeds.push_back(static_cast<NodeId>(x));
    }

    TcicOptions tcic;
    tcic.window = window;
    tcic.probability = 0.5;
    TcltOptions tclt;
    tclt.window = window;

    transfer.AddRow(
        {name,
         TablePrinter::Cell(
             AverageTcicSpread(graph, seeds.seeds, tcic, 20, 5), 1),
         TablePrinter::Cell(
             AverageTcltSpread(graph, seeds.seeds, tclt, 20, 5), 1),
         TablePrinter::Cell(
             AverageTcicSpread(graph, random_seeds, tcic, 20, 5), 1),
         TablePrinter::Cell(
             AverageTcltSpread(graph, random_seeds, tclt, 20, 5), 1)});
  }
  transfer.Print();
  std::printf(
      "\nD: IRS seeds should beat random under BOTH cascade models — the "
      "channel structure,\nnot the model, carries the signal.\n\n");

  // ---- E: sketch backend (the paper's vHLL vs versioned bottom-k) ------
  // Accuracy and memory at comparable budgets on the two exact-feasible
  // datasets, plus build time.
  TablePrinter backend("E — sketch backend: versioned HLL vs bottom-k");
  backend.SetHeader({"Dataset", "vHLL err", "vBK err", "vHLL MB", "vBK MB",
                     "vHLL s", "vBK s"});
  for (const std::string& name :
       std::vector<std::string>{"slashdot", "higgs"}) {
    const InteractionGraph graph = LoadBenchDataset(name, scale * 2);
    const Duration window = graph.WindowFromPercent(10.0);
    const IrsExact exact = IrsExact::Compute(graph, window);
    std::vector<double> truth(graph.num_nodes());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      truth[u] = static_cast<double>(exact.IrsSize(u));
    }

    WallTimer vhll_timer;
    IrsApproxOptions vhll_options;
    vhll_options.precision = 9;  // beta = 512
    const IrsApprox vhll = IrsApprox::Compute(graph, window, vhll_options);
    const double vhll_seconds = vhll_timer.ElapsedSeconds();

    WallTimer vbk_timer;
    IrsBottomKOptions vbk_options;
    vbk_options.k = 512;  // same nominal budget
    const IrsApproxBottomK vbk =
        IrsApproxBottomK::Compute(graph, window, vbk_options);
    const double vbk_seconds = vbk_timer.ElapsedSeconds();

    std::vector<double> vhll_est(graph.num_nodes());
    std::vector<double> vbk_est(graph.num_nodes());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      vhll_est[u] = vhll.EstimateIrsSize(u);
      vbk_est[u] = vbk.EstimateIrsSize(u);
    }
    backend.AddRow(
        {name, TablePrinter::Cell(MeanRelativeError(truth, vhll_est), 3),
         TablePrinter::Cell(MeanRelativeError(truth, vbk_est), 3),
         TablePrinter::Cell(vhll.MemoryUsageBytes() / (1024.0 * 1024.0), 1),
         TablePrinter::Cell(vbk.MemoryUsageBytes() / (1024.0 * 1024.0), 1),
         TablePrinter::Cell(vhll_seconds, 2),
         TablePrinter::Cell(vbk_seconds, 2)});
  }
  backend.Print();
  std::printf(
      "\nE: bottom-k is exact below k and unbiased, but costs more per "
      "entry and per merge;\nvHLL's fixed-size cells win once sets exceed "
      "k — the paper's choice.\n");
  EmitRunReport(flags);
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
