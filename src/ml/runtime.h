#ifndef FLOCK_ML_RUNTIME_H_
#define FLOCK_ML_RUNTIME_H_

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/matrix.h"

namespace flock::ml {

/// Vectorized interpreter for ModelGraphs — the stand-in for ONNX Runtime.
///
/// Executes one kernel per node over the whole batch; this is the engine
/// used both standalone ("ORT" baseline in Figure 4) and inside the Flock
/// Predict operator ("SONNX"), where the SQL executor calls it once per
/// morsel from many threads (the runtime itself is stateless and
/// re-entrant).
class GraphRuntime {
 public:
  explicit GraphRuntime(const ModelGraph* graph) : graph_(graph) {}

  /// Runs the graph over `input` ([N x input_cols]).
  StatusOr<Matrix> Run(const Matrix& input) const;

  /// Runs only the prefix up to and including `node_id`, returning that
  /// node's output. Used by threshold push-up, which needs the featurized
  /// matrix feeding the tree ensemble without evaluating the ensemble.
  StatusOr<Matrix> RunToNode(const Matrix& input, int node_id) const;

  /// Convenience: runs and returns the first output column.
  StatusOr<std::vector<double>> RunToScores(const Matrix& input) const;

 private:
  StatusOr<Matrix> RunImpl(const Matrix& input, int stop_node) const;

  const ModelGraph* graph_;
};

/// Propagates per-column [min, max] value ranges through the graph's
/// featurizer prefix. Used by the ModelCompression rule: storage statistics
/// on the scanned columns become ranges over the tree-ensemble's feature
/// space, enabling static resolution of unreachable branches (paper §4.1,
/// "model compression exploiting input data statistics").
struct ColumnRange {
  double min = 0.0;
  double max = 0.0;
  bool known = false;
};

/// Returns the value ranges at `node_id`'s output given input ranges, or an
/// empty vector if ranges cannot be propagated to that node.
std::vector<ColumnRange> PropagateRanges(
    const ModelGraph& graph, int node_id,
    const std::vector<ColumnRange>& input_ranges);

/// Prunes every TreeEnsemble in `graph` whose input ranges are derivable
/// from `input_ranges`: branches that the data can never take are folded
/// away. Returns the number of tree nodes removed.
size_t CompressTreesWithRanges(ModelGraph* graph,
                               const std::vector<ColumnRange>& input_ranges);

/// The number of tree nodes CompressTreesWithRanges would remove, computed
/// without copying or modifying the graph.
size_t CountCompressibleTreeNodes(const ModelGraph& graph,
                                  const std::vector<ColumnRange>& input_ranges);

}  // namespace flock::ml

#endif  // FLOCK_ML_RUNTIME_H_
