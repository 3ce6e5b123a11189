#ifndef IPIN_GRAPH_GRAPH_IO_H_
#define IPIN_GRAPH_GRAPH_IO_H_

#include <optional>
#include <string>

#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/static_graph.h"

namespace ipin {

/// Text formats for timestamped edge lists.
enum class EdgeListFormat {
  /// "src dst time" per line (SNAP temporal networks; also accepts commas).
  kSrcDstTime,
  /// "src dst weight time" per line (KONECT "out." files); weight is ignored.
  kKonect,
};

/// How malformed input lines are handled.
enum class ParseMode {
  /// Any malformed data line fails the whole load with the line number and
  /// reason (the historical behavior; default).
  kStrict,
  /// Malformed lines — and, because damaged logs often interleave garbage
  /// timestamps, lines whose timestamp runs backwards relative to the
  /// previous accepted line — are skipped, counted in the
  /// "graph.io.skipped_lines" metric, and summarized in one warning.
  /// Use to salvage a partially corrupted edge list.
  kLenient,
};

/// Loads an interaction network from a whitespace/comma-separated text file.
/// Lines starting with '#' or '%' are comments. Node ids may be arbitrary
/// non-negative integers; they are remapped to a dense [0, n) range in order
/// of first appearance. Interactions are sorted by time after loading.
/// Returns nullopt if the file cannot be opened or (in strict mode) any data
/// line is malformed (logs the offending line and reason). A timestamp
/// outside IsValidInteractionTime counts as malformed.
std::optional<InteractionGraph> LoadInteractionsFromFile(
    const std::string& path, EdgeListFormat format = EdgeListFormat::kSrcDstTime,
    ParseMode mode = ParseMode::kStrict);

/// Writes "src dst time" lines (the kSrcDstTime format). Returns false on
/// I/O error.
bool SaveInteractionsToFile(const InteractionGraph& graph,
                            const std::string& path);

/// Writes a static graph in the DIMACS shortest-paths format the SKIM code
/// of Cohen et al. consumes: "p sp <n> <m>" header plus one "a u v 1" line
/// per edge (1-based node ids). Returns false on I/O error.
bool SaveDimacs(const StaticGraph& graph, const std::string& path);

/// Reads a DIMACS "p sp" file back into a static graph (arc weights are
/// ignored). Returns nullopt on open/parse failure.
std::optional<StaticGraph> LoadDimacs(const std::string& path);

}  // namespace ipin

#endif  // IPIN_GRAPH_GRAPH_IO_H_
