// Ablation harness for the design choices called out in DESIGN.md:
//   A. CELF lazy queue vs the paper's Algorithm 4 sorted scan
//      (same seeds; how many gain evaluations does each need?).
//   B. Lazy sketch allocation (only senders get a sketch) vs eager.
//   C. vHLL domination pruning: undominated entries vs total insertions.

#include <cstdio>

#include "bench_common.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
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
      "domination pruning keeps.\n");

  EmitRunReport(flags);
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
