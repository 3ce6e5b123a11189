#include "ipin/core/irs_approx.h"

#include <algorithm>
#include <utility>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"

namespace ipin {
namespace {

// Below this edge count the slab build's fixed costs (P sketch arrays, the
// stitch pass) outweigh any speedup; stay on the one-pass scan. Above it
// four slabs beat one thread at both ends of the window range measured
// (140,800 edges: 0.97 s vs 1.33 s at a 10% window, 0.27 s vs 0.72 s at 2%;
// DESIGN.md §10). They lost at 10% while every vHLL cell was its own heap
// vector: the threads contended on malloc and the memory tally.
constexpr size_t kParallelBuildMinEdges = 4096;
// Never cut slabs smaller than this many edges.
constexpr size_t kMinSlabEdges = 1024;

}  // namespace

IrsApprox::IrsApprox(size_t num_nodes, Duration window,
                     const IrsApproxOptions& options)
    : window_(window),
      options_(options),
      num_nodes_(num_nodes),
      sketches_(num_nodes) {
  IPIN_CHECK_GE(window, 1);
}

IrsApprox::IrsApprox(Duration window, const IrsApproxOptions& options,
                     std::vector<std::unique_ptr<VersionedHll>> sketches)
    : window_(window),
      options_(options),
      num_nodes_(sketches.size()),
      sketches_(std::move(sketches)) {
  IPIN_CHECK_GE(window, 1);
  for (const auto& sketch : sketches_) {
    if (sketch != nullptr) {
      IPIN_CHECK_EQ(sketch->precision(), options_.precision);
      IPIN_CHECK_EQ(sketch->salt(), options_.salt);
    }
  }
  // Restored instances (oracle load, shard extraction) are final and
  // query-facing; pack them for the query hot paths right away.
  Seal();
}

void IrsApprox::Seal() {
  if (sealed_) return;
  IPIN_TRACE_SPAN("irs.approx.seal");
  // A ledger phase too: sealing is part of every index open. Units are nodes.
  obs::ProgressPhase phase("irs.approx.seal", num_nodes_);
  // Capture the per-sketch lifetime tallies before freeing their owners.
  sealed_insert_attempts_ = TotalInsertAttempts();
  sealed_evictions_ = TotalEvictions();
  sealed_merge_entries_scanned_ = TotalMergeEntriesScanned();
  sealed_cell_updates_ = TotalCellUpdates();
  arena_ = std::make_unique<SketchArena>(options_.precision, options_.salt,
                                         std::span(sketches_));
  sealed_ = true;
  sketches_.clear();
  sketches_.shrink_to_fit();
  phase.SetDone(num_nodes_);
  IPIN_GAUGE_SET("sketch.arena.bytes", arena_->MemoryUsageBytes());
  IPIN_GAUGE_SET("sketch.arena.entries", arena_->TotalEntries());
}

IrsApprox IrsApprox::Compute(const InteractionGraph& graph, Duration window,
                             const IrsApproxOptions& options) {
  const size_t threads = GlobalThreads();
  if (threads > 1 && graph.num_interactions() >= kParallelBuildMinEdges) {
    return ComputeParallel(graph, window, options, threads);
  }
  return ComputeSequential(graph, window, options);
}

IrsApprox IrsApprox::ComputeSequential(const InteractionGraph& graph,
                                       Duration window,
                                       const IrsApproxOptions& options) {
  IPIN_TRACE_SPAN("irs.approx.compute");
  IPIN_CHECK(graph.is_sorted());
  IrsApprox irs(graph.num_nodes(), window, options);
  const auto& edges = graph.interactions();
  obs::ProgressPhase phase("irs.approx.scan", edges.size());
  size_t since_tick = 0;
  for (size_t i = edges.size(); i > 0; --i) {
    irs.ProcessInteraction(edges[i - 1]);
    // Chunked ticks keep the per-edge path atomics-free.
    if (++since_tick == (size_t{64} << 10)) {
      phase.Tick(since_tick);
      since_tick = 0;
    }
  }
  phase.SetDone(edges.size());
  irs.PublishBuildMetrics();
  return irs;
}

// Correctness sketch (full argument in DESIGN.md §10). A node's final cell
// lists are the canonical Pareto frontier (domination pruning, Lemma 3) of
// the set of (rank, channel-end-time) pairs that reach it, and AddEntry and
// produces that frontier regardless of insertion order — so any schedule
// inserting the same pair set yields bit-identical sketches. Slab builds
// insert exactly the pairs carried by channels confined to one slab; every
// channel crossing a slab boundary decomposes into its maximal suffix
// (already folded into the stitched suffix sketches) plus slab-local hops,
// which the stitch scan replays: scanning slab i right-to-left, each edge
// (u, v, t) pulls v's suffix-derived entries (prop[v], accumulated by later
// slab-i edges) and v's final suffix sketch through the same
// window-bounded MergeWindow the one-pass scan would have applied at that
// edge. Entries from the suffix all have time >= the slab boundary, so
// once t + window <= boundary nothing further can cross and the scan
// breaks early — with a window far smaller than the trace span the stitch
// touches only a thin band per boundary.
IrsApprox IrsApprox::ComputeParallel(const InteractionGraph& graph,
                                     Duration window,
                                     const IrsApproxOptions& options,
                                     size_t num_slabs) {
  IPIN_CHECK(graph.is_sorted());
  const auto& edges = graph.interactions();
  const size_t m = edges.size();
  const size_t n = graph.num_nodes();
  size_t slabs_wanted = std::max<size_t>(num_slabs, 1);
  if (slabs_wanted > 1 && m / slabs_wanted < kMinSlabEdges) {
    slabs_wanted = std::max<size_t>(1, m / kMinSlabEdges);
  }
  if (slabs_wanted <= 1 || m == 0) {
    return ComputeSequential(graph, window, options);
  }
  IPIN_TRACE_SPAN("irs.approx.compute_parallel");
  const size_t P = slabs_wanted;

  // Slab i owns edge indices [bounds[i], bounds[i+1]); slabs are contiguous
  // in the sorted edge array, so equal-timestamp runs may split across a
  // boundary — harmless, the stitch replays those edges too.
  std::vector<size_t> bounds(P + 1);
  for (size_t i = 0; i <= P; ++i) bounds[i] = i * m / P;

  // Phase 1: independent reverse scans, one (partial) IrsApprox per slab.
  std::vector<IrsApprox> slabs;
  slabs.reserve(P);
  for (size_t i = 0; i < P; ++i) slabs.emplace_back(n, window, options);
  {
    IPIN_TRACE_SPAN("irs.approx.parallel.slab_build");
    obs::ProgressPhase phase("irs.approx.slab_build", P);
    ParallelFor(0, P, 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        for (size_t j = bounds[i + 1]; j > bounds[i]; --j) {
          slabs[i].ProcessInteraction(edges[j - 1]);
        }
        phase.Tick();
      }
    });
  }

  // Phases 2+3, right to left: compute the boundary propagation for slab i
  // against the already-stitched suffix, then fold slab i's local sketches
  // and the propagated entries into the final ones.
  std::vector<std::unique_ptr<VersionedHll>> final_sketches =
      std::move(slabs[P - 1].sketches_);
  size_t merge_calls = slabs[P - 1].merge_calls_;
  obs::ProgressPhase stitch_phase("irs.approx.stitch", P - 1);
  for (size_t i = P - 1; i-- > 0;) {
    IPIN_TRACE_SPAN("irs.approx.parallel.stitch");
    const Timestamp boundary = edges[bounds[i + 1]].time;
    // prop[x]: entries of the suffix that flow into x via slab-i edges,
    // built by replaying the reverse scan over the boundary band.
    std::vector<std::unique_ptr<VersionedHll>> prop(n);
    for (size_t j = bounds[i + 1]; j > bounds[i]; --j) {
      const auto [u, v, t] = edges[j - 1];
      if (t + window <= boundary) break;  // suffix out of reach from here on
      if (u == v) continue;  // self-loops never propagate (Algorithm 3)
      const VersionedHll* from_prop = prop[v].get();
      const VersionedHll* from_final = final_sketches[v].get();
      if (from_prop == nullptr && from_final == nullptr) continue;
      if (prop[u] == nullptr) {
        prop[u] = std::make_unique<VersionedHll>(options.precision,
                                                 options.salt);
      }
      if (from_prop != nullptr) {
        prop[u]->MergeWindow(*from_prop, t, window);
        ++merge_calls;
      }
      if (from_final != nullptr) {
        prop[u]->MergeWindow(*from_final, t, window);
        ++merge_calls;
      }
    }
    merge_calls += slabs[i].merge_calls_;
    auto& local = slabs[i].sketches_;
    ParallelFor(0, n, 1024, [&](size_t lo, size_t hi) {
      for (size_t x = lo; x < hi; ++x) {
        if (local[x] != nullptr) {
          if (final_sketches[x] == nullptr) {
            final_sketches[x] = std::move(local[x]);
          } else {
            final_sketches[x]->MergeAll(*local[x]);
          }
        }
        // A node with propagated entries was the source of some slab-i
        // edge, so its local sketch exists and final_sketches[x] is set.
        if (prop[x] != nullptr) final_sketches[x]->MergeAll(*prop[x]);
      }
    });
    stitch_phase.Tick();
  }

  // Assemble directly (not via the restoring ctor, which seals): like the
  // sequential path, parallel builds return unsealed so the pack + free cost
  // lands at the build->query handoff, outside the timed build.
  IrsApprox irs(n, window, options);
  irs.sketches_ = std::move(final_sketches);
  irs.saw_interaction_ = true;
  irs.last_time_ = edges.front().time;
  irs.edges_scanned_ = m;
  irs.merge_calls_ = merge_calls;
  irs.PublishBuildMetrics();
  return irs;
}

void IrsApprox::PublishBuildMetrics() const {
  // Scan and per-sketch tallies (plain members, free to maintain) roll up
  // into the registry once per build, keeping the per-edge path atomics-free.
  IPIN_COUNTER_ADD("irs.approx.edges_scanned", edges_scanned_);
  IPIN_COUNTER_ADD("sketch.vhll.merges", merge_calls_);
  IPIN_COUNTER_ADD("sketch.vhll.merge_entries_scanned",
                   TotalMergeEntriesScanned());
  IPIN_COUNTER_ADD("sketch.vhll.cell_updates", TotalCellUpdates());
  IPIN_COUNTER_ADD("sketch.vhll.insert_attempts", TotalInsertAttempts());
  IPIN_COUNTER_ADD("sketch.vhll.dominance_evictions", TotalEvictions());
  IPIN_GAUGE_SET("sketch.vhll.total_entries", TotalSketchEntries());
  IPIN_GAUGE_SET("irs.approx.allocated_sketches", NumAllocatedSketches());
}

VersionedHll* IrsApprox::MutableSketch(NodeId u) {
  if (sketches_[u] == nullptr) {
    sketches_[u] =
        std::make_unique<VersionedHll>(options_.precision, options_.salt);
  }
  return sketches_[u].get();
}

void IrsApprox::ProcessInteraction(const Interaction& interaction) {
  const auto [u, v, t] = interaction;
  IPIN_CHECK(!sealed_);
  IPIN_CHECK_LT(u, sketches_.size());
  IPIN_CHECK_LT(v, sketches_.size());
  if (saw_interaction_) {
    IPIN_CHECK_LE(t, last_time_);  // reverse chronological order required
  }
  last_time_ = t;
  saw_interaction_ = true;

  ++edges_scanned_;
  VersionedHll* sketch_u = MutableSketch(u);
  // ApproxAdd: v joins sigma(u) with channel end time t. Self-loops are
  // filtered like in IrsExact (a node is not in its own IRS); a merge can
  // still fold u's own hash in via a temporal cycle — a one-item bias the
  // sketch cannot distinguish, documented in DESIGN.md.
  if (u != v) sketch_u->Add(static_cast<uint64_t>(v), t);
  // ApproxMerge: fold in phi(v) entries still inside the window. Self-loops
  // would merge the sketch into itself (a no-op); skip like IrsExact.
  if (u == v) return;
  const VersionedHll* sketch_v = sketches_[v].get();
  if (sketch_v != nullptr) {
    ++merge_calls_;
    sketch_u->MergeWindow(*sketch_v, t, window_);
  }
}

double IrsApprox::EstimateIrsSize(NodeId u) const {
  IPIN_CHECK_LT(u, num_nodes_);
  if (sealed_) {
    return arena_->has_node(u) ? arena_->EstimateNode(u) : 0.0;
  }
  const VersionedHll* sketch = sketches_[u].get();
  return sketch == nullptr ? 0.0 : sketch->Estimate();
}

double IrsApprox::EstimateUnionSize(std::span<const NodeId> seeds) const {
  std::vector<uint8_t> ranks;
  return EstimateUnionSize(seeds, &ranks);
}

double IrsApprox::EstimateUnionSize(std::span<const NodeId> seeds,
                                    std::vector<uint8_t>* scratch) const {
  const size_t beta = static_cast<size_t>(1) << options_.precision;
  scratch->assign(beta, 0);
  uint8_t* const ranks = scratch->data();
  bool any = false;
  for (const NodeId u : seeds) {
    IPIN_CHECK_LT(u, num_nodes_);
    if (sealed_) {
      if (!arena_->has_node(u)) continue;
      any = true;
      // Sealed fast path: fold the node's rank-plane row straight in —
      // one contiguous vector max per seed.
      kernels::CellwiseMaxU8(ranks, arena_->rank_row(u).data(), beta);
      continue;
    }
    const VersionedHll* sketch = sketches_[u].get();
    if (sketch == nullptr) continue;
    any = true;
    kernels::CellwiseMaxU8(ranks, sketch->max_ranks().data(), beta);
  }
  if (!any) return 0.0;
  return kernels::Dispatched().estimate_from_ranks(ranks, beta);
}

size_t IrsApprox::NumAllocatedSketches() const {
  if (sealed_) return arena_->NumAllocated();
  size_t count = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) ++count;
  }
  return count;
}

size_t IrsApprox::TotalSketchEntries() const {
  if (sealed_) return arena_->TotalEntries();
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumEntries();
  }
  return total;
}

size_t IrsApprox::TotalInsertAttempts() const {
  if (sealed_) return sealed_insert_attempts_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumInsertAttempts();
  }
  return total;
}

size_t IrsApprox::TotalEvictions() const {
  if (sealed_) return sealed_evictions_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumEvictions();
  }
  return total;
}

size_t IrsApprox::TotalMergeEntriesScanned() const {
  if (sealed_) return sealed_merge_entries_scanned_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumMergeEntriesScanned();
  }
  return total;
}

size_t IrsApprox::TotalCellUpdates() const {
  if (sealed_) return sealed_cell_updates_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumCellUpdates();
  }
  return total;
}

size_t IrsApprox::MemoryUsageBytes() const {
  if (sealed_) return arena_->MemoryUsageBytes();
  size_t bytes = sketches_.capacity() * sizeof(std::unique_ptr<VersionedHll>);
  for (const auto& s : sketches_) {
    if (s != nullptr) bytes += sizeof(VersionedHll) + s->MemoryUsageBytes();
  }
  return bytes;
}

}  // namespace ipin
