#include "ml/runtime.h"

#include <cmath>

namespace flock::ml {

StatusOr<Matrix> GraphRuntime::Run(const Matrix& input) const {
  return RunImpl(input, graph_->output_id());
}

StatusOr<Matrix> GraphRuntime::RunToNode(const Matrix& input,
                                         int node_id) const {
  if (node_id < 0 ||
      static_cast<size_t>(node_id) >= graph_->nodes().size()) {
    return Status::InvalidArgument("RunToNode: bad node id");
  }
  return RunImpl(input, node_id);
}

StatusOr<Matrix> GraphRuntime::RunImpl(const Matrix& input,
                                       int stop_node) const {
  if (input.cols() != graph_->input_cols()) {
    return Status::InvalidArgument(
        "graph expects " + std::to_string(graph_->input_cols()) +
        " input columns, got " + std::to_string(input.cols()));
  }
  const size_t n = input.rows();
  std::vector<Matrix> results(graph_->nodes().size());
  results[0] = input;  // kInput

  for (size_t i = 1; i <= static_cast<size_t>(stop_node); ++i) {
    const GraphNode& node = graph_->nodes()[i];
    const Matrix& in = results[static_cast<size_t>(node.inputs[0])];
    Matrix out(n, node.output_cols);
    switch (node.op) {
      case OpType::kInput:
        return Status::Internal("duplicate Input node");
      case OpType::kImputer:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = std::isnan(src[c]) ? node.imputer_values[c] : src[c];
          }
        }
        break;
      case OpType::kScaler:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = (src[c] - node.offset[c]) * node.scale[c];
          }
        }
        break;
      case OpType::kOneHot:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          size_t pos = 0;
          for (size_t c = 0; c < in.cols(); ++c) {
            int k = node.onehot_sizes[c];
            if (k == 0) {
              dst[pos++] = src[c];
            } else {
              int64_t idx = static_cast<int64_t>(src[c]);
              for (int j = 0; j < k; ++j) {
                dst[pos + static_cast<size_t>(j)] =
                    (idx == j) ? 1.0 : 0.0;
              }
              pos += static_cast<size_t>(k);
            }
          }
        }
        break;
      case OpType::kConcat: {
        size_t pos = 0;
        for (int input_id : node.inputs) {
          const Matrix& part = results[static_cast<size_t>(input_id)];
          for (size_t r = 0; r < n; ++r) {
            const double* src = part.row(r);
            double* dst = out.row(r) + pos;
            for (size_t c = 0; c < part.cols(); ++c) dst[c] = src[c];
          }
          pos += part.cols();
        }
        break;
      }
      case OpType::kGemm: {
        const size_t out_cols = node.gemm_weights.rows();
        const size_t in_cols = in.cols();
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t j = 0; j < out_cols; ++j) {
            double acc = node.gemm_bias[j];
            const double* w = node.gemm_weights.row(j);
            for (size_t c = 0; c < in_cols; ++c) acc += w[c] * src[c];
            dst[j] = acc;
          }
        }
        break;
      }
      case OpType::kSigmoid:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = 1.0 / (1.0 + std::exp(-src[c]));
          }
        }
        break;
      case OpType::kRelu:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = src[c] > 0.0 ? src[c] : 0.0;
          }
        }
        break;
      case OpType::kTreeEnsemble: {
        const double norm =
            node.tree_average && !node.trees.empty()
                ? 1.0 / static_cast<double>(node.trees.size())
                : 1.0;
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double acc = node.tree_base;
          for (const Tree& tree : node.trees) {
            acc += tree.Predict(src);
          }
          out.at(r, 0) = node.tree_average
                             ? node.tree_base +
                                   (acc - node.tree_base) * norm
                             : acc;
        }
        break;
      }
      case OpType::kBinarizer:
        for (size_t r = 0; r < n; ++r) {
          const double* src = in.row(r);
          double* dst = out.row(r);
          for (size_t c = 0; c < in.cols(); ++c) {
            dst[c] = src[c] > node.binarizer_threshold ? 1.0 : 0.0;
          }
        }
        break;
      case OpType::kIdentity:
        out = in;
        break;
    }
    results[i] = std::move(out);
  }
  return results[static_cast<size_t>(stop_node)];
}

StatusOr<std::vector<double>> GraphRuntime::RunToScores(
    const Matrix& input) const {
  FLOCK_ASSIGN_OR_RETURN(Matrix out, Run(input));
  std::vector<double> scores(out.rows());
  for (size_t r = 0; r < out.rows(); ++r) scores[r] = out.at(r, 0);
  return scores;
}

std::vector<ColumnRange> PropagateRanges(
    const ModelGraph& graph, int node_id,
    const std::vector<ColumnRange>& input_ranges) {
  std::vector<std::vector<ColumnRange>> ranges(graph.nodes().size());
  ranges[0] = input_ranges;
  for (size_t i = 1; i <= static_cast<size_t>(node_id); ++i) {
    const GraphNode& node = graph.nodes()[i];
    const auto& in = ranges[static_cast<size_t>(node.inputs[0])];
    if (in.empty() && node.op != OpType::kConcat) {
      continue;  // unknown upstream
    }
    std::vector<ColumnRange> out;
    switch (node.op) {
      case OpType::kImputer:
        out = in;
        for (size_t c = 0; c < out.size(); ++c) {
          if (out[c].known) {
            out[c].min = std::min(out[c].min, node.imputer_values[c]);
            out[c].max = std::max(out[c].max, node.imputer_values[c]);
          }
        }
        break;
      case OpType::kScaler:
        out.resize(in.size());
        for (size_t c = 0; c < in.size(); ++c) {
          if (!in[c].known) continue;
          double a = (in[c].min - node.offset[c]) * node.scale[c];
          double b = (in[c].max - node.offset[c]) * node.scale[c];
          out[c].min = std::min(a, b);
          out[c].max = std::max(a, b);
          out[c].known = true;
        }
        break;
      case OpType::kOneHot: {
        for (size_t c = 0; c < in.size(); ++c) {
          int k = node.onehot_sizes[c];
          if (k == 0) {
            out.push_back(in[c]);
          } else {
            for (int j = 0; j < k; ++j) {
              out.push_back(ColumnRange{0.0, 1.0, true});
            }
          }
        }
        break;
      }
      case OpType::kConcat: {
        bool all_known = true;
        for (int input_id : node.inputs) {
          const auto& part = ranges[static_cast<size_t>(input_id)];
          if (part.empty()) {
            all_known = false;
            break;
          }
          out.insert(out.end(), part.begin(), part.end());
        }
        if (!all_known) out.clear();
        break;
      }
      case OpType::kSigmoid:
        out.assign(in.size(), ColumnRange{0.0, 1.0, true});
        break;
      case OpType::kBinarizer:
        out.assign(in.size(), ColumnRange{0.0, 1.0, true});
        break;
      case OpType::kRelu:
        out = in;
        for (auto& r : out) {
          if (r.known) {
            r.min = std::max(0.0, r.min);
            r.max = std::max(0.0, r.max);
          }
        }
        break;
      case OpType::kIdentity:
        out = in;
        break;
      default:
        // Gemm/TreeEnsemble outputs: stop propagation (ranges not needed
        // past the model itself).
        out.clear();
        break;
    }
    ranges[i] = std::move(out);
  }
  return ranges[static_cast<size_t>(node_id)];
}

namespace {

/// Rebuilds `tree` with statically-decidable branches folded; appends nodes
/// into `out` and returns the new index of the subtree rooted at `idx`.
int32_t PruneSubtree(const Tree& tree, int32_t idx,
                     const std::vector<ColumnRange>& ranges,
                     std::vector<TreeNode>* out) {
  const TreeNode& n = tree.nodes[static_cast<size_t>(idx)];
  if (n.is_leaf()) {
    out->push_back(n);
    return static_cast<int32_t>(out->size() - 1);
  }
  const ColumnRange& r = ranges[static_cast<size_t>(n.feature)];
  if (r.known) {
    if (r.max < n.threshold) {
      // Every value routes left.
      return PruneSubtree(tree, n.left, ranges, out);
    }
    if (r.min >= n.threshold) {
      return PruneSubtree(tree, n.right, ranges, out);
    }
  }
  // Keep the split; reserve a slot, then emit children.
  out->push_back(n);
  size_t slot = out->size() - 1;
  int32_t new_left = PruneSubtree(tree, n.left, ranges, out);
  int32_t new_right = PruneSubtree(tree, n.right, ranges, out);
  (*out)[slot].left = new_left;
  (*out)[slot].right = new_right;
  return static_cast<int32_t>(slot);
}

/// Number of nodes PruneSubtree would emit for the subtree at `idx`,
/// without building it.
size_t CountKeptNodes(const Tree& tree, int32_t idx,
                      const std::vector<ColumnRange>& ranges) {
  const TreeNode& n = tree.nodes[static_cast<size_t>(idx)];
  if (n.is_leaf()) return 1;
  const ColumnRange& r = ranges[static_cast<size_t>(n.feature)];
  if (r.known) {
    if (r.max < n.threshold) return CountKeptNodes(tree, n.left, ranges);
    if (r.min >= n.threshold) return CountKeptNodes(tree, n.right, ranges);
  }
  return 1 + CountKeptNodes(tree, n.left, ranges) +
         CountKeptNodes(tree, n.right, ranges);
}

}  // namespace

size_t CountCompressibleTreeNodes(
    const ModelGraph& graph, const std::vector<ColumnRange>& input_ranges) {
  size_t removed = 0;
  for (const GraphNode& node : graph.nodes()) {
    if (node.op != OpType::kTreeEnsemble || node.trees.empty()) continue;
    std::vector<ColumnRange> feature_ranges =
        PropagateRanges(graph, node.inputs[0], input_ranges);
    if (feature_ranges.empty()) continue;
    for (const Tree& tree : node.trees) {
      removed += tree.nodes.size() - CountKeptNodes(tree, 0, feature_ranges);
    }
  }
  return removed;
}

size_t CompressTreesWithRanges(ModelGraph* graph,
                               const std::vector<ColumnRange>& input_ranges) {
  size_t removed = 0;
  for (GraphNode& node : graph->mutable_nodes()) {
    if (node.op != OpType::kTreeEnsemble || node.trees.empty()) continue;
    std::vector<ColumnRange> feature_ranges =
        PropagateRanges(*graph, node.inputs[0], input_ranges);
    if (feature_ranges.empty()) continue;
    for (Tree& tree : node.trees) {
      std::vector<TreeNode> pruned;
      pruned.reserve(tree.nodes.size());
      int32_t root = PruneSubtree(tree, 0, feature_ranges, &pruned);
      // The root must land at index 0; if pruning reduced the tree to a
      // subtree rooted elsewhere, rotate it to the front.
      if (root != 0) {
        // PruneSubtree roots at the back only when the whole tree folds to
        // a single path; rebuild by re-rooting.
        std::vector<TreeNode> rebased;
        std::vector<int32_t> remap(pruned.size(), -1);
        // BFS from root.
        std::vector<int32_t> stack = {root};
        while (!stack.empty()) {
          int32_t cur = stack.back();
          stack.pop_back();
          if (remap[static_cast<size_t>(cur)] >= 0) continue;
          remap[static_cast<size_t>(cur)] =
              static_cast<int32_t>(rebased.size());
          rebased.push_back(pruned[static_cast<size_t>(cur)]);
          const TreeNode& cn = pruned[static_cast<size_t>(cur)];
          if (!cn.is_leaf()) {
            stack.push_back(cn.left);
            stack.push_back(cn.right);
          }
        }
        for (TreeNode& tn : rebased) {
          if (!tn.is_leaf()) {
            tn.left = remap[static_cast<size_t>(tn.left)];
            tn.right = remap[static_cast<size_t>(tn.right)];
          }
        }
        pruned = std::move(rebased);
      }
      if (pruned.size() < tree.nodes.size()) {
        removed += tree.nodes.size() - pruned.size();
        tree.nodes = std::move(pruned);
      }
    }
  }
  return removed;
}

}  // namespace flock::ml
