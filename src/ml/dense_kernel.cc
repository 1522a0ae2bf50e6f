#include "ml/dense_kernel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/cancel.h"

namespace flock::ml {

namespace {

/// Identity row list for steps that traverse every row of a block.
const uint32_t* AllRows() {
  static const std::array<uint32_t, DenseKernel::kBlockRows> rows = [] {
    std::array<uint32_t, DenseKernel::kBlockRows> r{};
    std::iota(r.begin(), r.end(), 0u);
    return r;
  }();
  return rows.data();
}

/// Raises `*max_depth` to the depth of the subtree at `node` (a lone leaf
/// is depth 0). The walk stops one level past `limit`: deeper trees are
/// not laid out. False when a child index or feature lies outside the
/// tree or the row.
bool MeasureDepth(const Tree& tree, int32_t node, size_t depth,
                  size_t limit, size_t in_cols, size_t* max_depth) {
  if (node < 0 || static_cast<size_t>(node) >= tree.nodes.size()) {
    return false;
  }
  *max_depth = std::max(*max_depth, depth);
  const TreeNode& n = tree.nodes[static_cast<size_t>(node)];
  if (n.is_leaf() || depth > limit) return true;
  if (static_cast<size_t>(n.feature) >= in_cols) return false;
  return MeasureDepth(tree, n.left, depth + 1, limit, in_cols, max_depth) &&
         MeasureDepth(tree, n.right, depth + 1, limit, in_cols, max_depth);
}

/// Writes the subtree at `node` into perfect-tree slot `q` of one tree's
/// arrays (`inner` = 2^D - 1 internal slots). A leaf above depth D fills
/// every perfect leaf below its slot; the internal slots in between keep
/// their feature-0/threshold-0 padding, whose branch cannot matter.
void PlaceNode(const Tree& tree, int32_t node, size_t q, size_t inner,
               int32_t* feature, double* threshold, double* leaf) {
  const TreeNode& n = tree.nodes[static_cast<size_t>(node)];
  if (!n.is_leaf()) {
    feature[q] = n.feature;
    threshold[q] = n.threshold;
    PlaceNode(tree, n.left, 2 * q + 1, inner, feature, threshold, leaf);
    PlaceNode(tree, n.right, 2 * q + 2, inner, feature, threshold, leaf);
    return;
  }
  size_t first = q, span = 1;
  while (first < inner) {
    first = 2 * first + 1;
    span *= 2;
  }
  std::fill_n(leaf + (first - inner), span, n.value);
}

/// Writes rows [begin, begin + count) of `col` into every `width`-th slot
/// of `dst`; `decode(e)` reads valid element e. NULL -> NaN.
template <typename Decode>
void GatherColumn(const FeatureColumn& col, size_t begin, size_t count,
                  size_t width, double* dst, Decode decode) {
  const double nan = std::nan("");
  const uint32_t* rows = col.rows;
  const uint8_t* valid = col.validity;
  for (size_t i = 0; i < count; ++i) {
    const size_t e = rows != nullptr ? rows[begin + i] : begin + i;
    dst[i * width] = valid != nullptr && valid[e] == 0 ? nan : decode(e);
  }
}

}  // namespace

FeatureSource FeatureSource::FromMatrix(const Matrix& raw) {
  FeatureSource src;
  src.num_rows = raw.rows();
  src.row_major = raw.data().data();
  src.columns.resize(raw.cols());
  for (size_t c = 0; c < raw.cols(); ++c) {
    src.columns[c].values = src.row_major + c;
    src.columns[c].stride = raw.cols();
  }
  return src;
}

void FeatureSource::Gather(size_t begin, size_t count, double* dst) const {
  const size_t width = columns.size();
  if (row_major != nullptr) {
    std::copy(row_major + begin * width, row_major + (begin + count) * width,
              dst);
    return;
  }
  for (size_t c = 0; c < width; ++c) {
    const FeatureColumn& col = columns[c];
    const size_t stride = col.stride;
    double* out = dst + c;
    switch (col.type) {
      case FeatureColumn::Type::kDouble: {
        const auto* v = static_cast<const double*>(col.values);
        GatherColumn(col, begin, count, width, out,
                     [v, stride](size_t e) { return v[e * stride]; });
        break;
      }
      case FeatureColumn::Type::kInt64: {
        const auto* v = static_cast<const int64_t*>(col.values);
        GatherColumn(col, begin, count, width, out, [v, stride](size_t e) {
          return static_cast<double>(v[e * stride]);
        });
        break;
      }
      case FeatureColumn::Type::kBool: {
        const auto* v = static_cast<const uint8_t*>(col.values);
        GatherColumn(col, begin, count, width, out, [v, stride](size_t e) {
          return v[e * stride] != 0 ? 1.0 : 0.0;
        });
        break;
      }
      case FeatureColumn::Type::kString: {
        const auto* v = static_cast<const std::string*>(col.values);
        const std::string* vocab =
            col.vocab != nullptr ? col.vocab->data() : nullptr;
        const size_t vocab_size = col.vocab != nullptr ? col.vocab->size() : 0;
        GatherColumn(col, begin, count, width, out,
                     [v, stride, vocab, vocab_size](size_t e) {
                       const std::string& value = v[e * stride];
                       for (size_t k = 0; k < vocab_size; ++k) {
                         if (vocab[k] == value) return static_cast<double>(k);
                       }
                       return std::nan("");
                     });
        break;
      }
      case FeatureColumn::Type::kConstant:
        for (size_t i = 0; i < count; ++i) out[i * width] = col.constant;
        break;
    }
  }
}

Matrix FeatureSource::ToMatrix() const {
  Matrix raw(num_rows, width());
  if (num_rows > 0) Gather(0, num_rows, raw.data().data());
  return raw;
}

DenseKernel::DenseKernel(const ModelGraph& graph) {
  input_cols_ = graph.input_cols();
  max_cols_ = input_cols_;
  const auto& nodes = graph.nodes();
  if (nodes.empty() || graph.output_id() <= 0 ||
      static_cast<size_t>(graph.output_id()) >= nodes.size()) {
    status_ = Status::InvalidArgument(
        "dense kernel: graph has no executable nodes");
    return;
  }
  // The kernel executes nodes 1..output_id as a straight-line chain over
  // ping-pong buffers, so each node must consume exactly the previous
  // node's output. Anything else (Concat, DAG wiring, dangling suffix
  // nodes) falls back to GraphRuntime.
  for (size_t i = 1; i <= static_cast<size_t>(graph.output_id()); ++i) {
    const GraphNode& node = nodes[i];
    if (node.inputs.size() != 1 ||
        node.inputs[0] != static_cast<int>(i) - 1) {
      status_ = Status::InvalidArgument(
          "dense kernel: non-chain graph wiring at node " +
          std::to_string(i));
      steps_.clear();
      return;
    }
    Step step;
    step.op = node.op;
    step.in_cols = steps_.empty() ? input_cols_ : steps_.back().out_cols;
    step.out_cols = node.output_cols;
    switch (node.op) {
      case OpType::kImputer:
        step.fill = node.imputer_values;
        break;
      case OpType::kScaler:
        step.offset = node.offset;
        step.scale = node.scale;
        break;
      case OpType::kOneHot:
        step.onehot_sizes = node.onehot_sizes;
        break;
      case OpType::kGemm:
        step.weights = node.gemm_weights;
        step.bias = node.gemm_bias;
        break;
      case OpType::kTreeEnsemble:
        step.tree_base = node.tree_base;
        step.tree_average = node.tree_average;
        status_ = CompileForest(node.trees, &step);
        if (!status_.ok()) {
          steps_.clear();
          return;
        }
        break;
      case OpType::kSigmoid:
      case OpType::kRelu:
      case OpType::kIdentity:
        break;
      case OpType::kBinarizer:
        step.binarizer_threshold = node.binarizer_threshold;
        break;
      default:
        status_ = Status::InvalidArgument(
            "dense kernel: unsupported op " +
            std::string(OpTypeName(node.op)));
        steps_.clear();
        return;
    }
    max_cols_ = std::max(max_cols_, step.out_cols);
    steps_.push_back(std::move(step));
  }
  if (steps_.empty()) {
    status_ = Status::InvalidArgument("dense kernel: empty plan");
  }
}

Status DenseKernel::CompileForest(const std::vector<Tree>& trees,
                                  Step* step) {
  const size_t num_trees = trees.size();
  step->num_trees = num_trees;
  size_t depth = 0;
  for (const Tree& tree : trees) {
    if (!MeasureDepth(tree, 0, 0, kMaxPerfectDepth, step->in_cols,
                      &depth)) {
      return Status::InvalidArgument("dense kernel: malformed tree");
    }
  }
  step->depth = depth;
  if (depth > kMaxPerfectDepth) {
    step->deep_trees = trees;
  } else {
    const size_t inner = (size_t{1} << depth) - 1;
    step->node_feature.assign(num_trees * inner, 0);
    step->node_threshold.assign(num_trees * inner, 0.0);
    step->leaf_value.assign(num_trees * (inner + 1), 0.0);
    for (size_t t = 0; t < num_trees; ++t) {
      PlaceNode(trees[t], 0, 0, inner,
                step->node_feature.data() + t * inner,
                step->node_threshold.data() + t * inner,
                step->leaf_value.data() + t * (inner + 1));
    }
  }
  // Suffix bounds for ThresholdBatch's early exit, accumulated from the
  // last tree backwards over each tree's leaves in node order.
  step->suffix_min.assign(num_trees + 1, 0.0);
  step->suffix_max.assign(num_trees + 1, 0.0);
  for (size_t i = num_trees; i-- > 0;) {
    double tree_min = 0.0, tree_max = 0.0;
    bool first = true;
    for (const TreeNode& tn : trees[i].nodes) {
      if (!tn.is_leaf()) continue;
      if (first) {
        tree_min = tree_max = tn.value;
        first = false;
      } else {
        tree_min = std::min(tree_min, tn.value);
        tree_max = std::max(tree_max, tn.value);
      }
    }
    step->suffix_min[i] = step->suffix_min[i + 1] + tree_min;
    step->suffix_max[i] = step->suffix_max[i + 1] + tree_max;
  }
  return Status::OK();
}

size_t DenseKernel::tree_depth() const {
  for (const Step& step : steps_) {
    if (step.op == OpType::kTreeEnsemble) return step.depth;
  }
  return 0;
}

void DenseKernel::AddTree(const Step& step, size_t t, const double* x,
                          const uint32_t* rows, size_t count, double* acc) {
  const size_t stride = step.in_cols;
  if (!step.deep_trees.empty()) {
    const Tree& tree = step.deep_trees[t];
    for (size_t i = 0; i < count; ++i) {
      acc[rows[i]] += tree.Predict(x + rows[i] * stride);
    }
    return;
  }
  const size_t depth = step.depth;
  const size_t inner = (size_t{1} << depth) - 1;
  const int32_t* feature = step.node_feature.data() + t * inner;
  const double* threshold = step.node_threshold.data() + t * inner;
  const double* leaf = step.leaf_value.data() + t * (inner + 1);
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const double* row[kLanes];
    size_t q[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      row[k] = x + rows[i + k] * stride;
      q[k] = 0;
    }
    for (size_t d = 0; d < depth; ++d) {
      for (size_t k = 0; k < kLanes; ++k) {
        q[k] = 2 * q[k] + 1 + !(row[k][feature[q[k]]] < threshold[q[k]]);
      }
    }
    for (size_t k = 0; k < kLanes; ++k) {
      acc[rows[i + k]] += leaf[q[k] - inner];
    }
  }
  for (; i < count; ++i) {
    const double* row = x + rows[i] * stride;
    size_t q = 0;
    for (size_t d = 0; d < depth; ++d) {
      q = 2 * q + 1 + !(row[feature[q]] < threshold[q]);
    }
    acc[rows[i]] += leaf[q - inner];
  }
}

const double* DenseKernel::Execute(size_t n, size_t end,
                                   DenseKernelScratch* scratch) const {
  double* cur = scratch->a_.data();
  double* alt = scratch->b_.data();
  for (size_t s = 0; s < end; ++s) {
    const Step& step = steps_[s];
    const size_t in_cols = step.in_cols;
    const size_t out_cols = step.out_cols;
    switch (step.op) {
      case OpType::kImputer:
        for (size_t r = 0; r < n; ++r) {
          double* row = cur + r * in_cols;
          for (size_t c = 0; c < in_cols; ++c) {
            if (std::isnan(row[c])) row[c] = step.fill[c];
          }
        }
        break;
      case OpType::kScaler:
        for (size_t r = 0; r < n; ++r) {
          double* row = cur + r * in_cols;
          for (size_t c = 0; c < in_cols; ++c) {
            row[c] = (row[c] - step.offset[c]) * step.scale[c];
          }
        }
        break;
      case OpType::kOneHot:
        for (size_t r = 0; r < n; ++r) {
          const double* src = cur + r * in_cols;
          double* dst = alt + r * out_cols;
          size_t pos = 0;
          for (size_t c = 0; c < in_cols; ++c) {
            const int k = step.onehot_sizes[c];
            if (k == 0) {
              dst[pos++] = src[c];
            } else {
              const int64_t idx = std::isnan(src[c])
                                      ? int64_t{-1}
                                      : static_cast<int64_t>(src[c]);
              for (int j = 0; j < k; ++j) {
                dst[pos + static_cast<size_t>(j)] = (idx == j) ? 1.0 : 0.0;
              }
              pos += static_cast<size_t>(k);
            }
          }
        }
        std::swap(cur, alt);
        break;
      case OpType::kGemm:
        for (size_t r = 0; r < n; ++r) {
          const double* src = cur + r * in_cols;
          double* dst = alt + r * out_cols;
          for (size_t j = 0; j < out_cols; ++j) {
            double acc = step.bias[j];
            const double* w = step.weights.row(j);
            for (size_t c = 0; c < in_cols; ++c) acc += w[c] * src[c];
            dst[j] = acc;
          }
        }
        std::swap(cur, alt);
        break;
      case OpType::kTreeEnsemble: {
        // Tree-major traversal: each tree's nodes stay cache-hot across
        // the whole block. Per row the accumulation order is still
        // tree 0, 1, ... so scores are bitwise identical to the row-major
        // order GraphRuntime uses.
        for (size_t r = 0; r < n; ++r) alt[r] = step.tree_base;
        for (size_t t = 0; t < step.num_trees; ++t) {
          AddTree(step, t, cur, AllRows(), n, alt);
        }
        if (step.tree_average && step.num_trees > 0) {
          const double norm = 1.0 / static_cast<double>(step.num_trees);
          for (size_t r = 0; r < n; ++r) {
            alt[r] = step.tree_base + (alt[r] - step.tree_base) * norm;
          }
        }
        std::swap(cur, alt);
        break;
      }
      case OpType::kSigmoid:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = 1.0 / (1.0 + std::exp(-cur[i]));
        }
        break;
      case OpType::kRelu:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = cur[i] > 0.0 ? cur[i] : 0.0;
        }
        break;
      case OpType::kBinarizer:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = cur[i] > step.binarizer_threshold ? 1.0 : 0.0;
        }
        break;
      case OpType::kIdentity:
      default:
        break;
    }
  }
  return cur;
}

double DenseKernel::ScoreRow(const double* row,
                             DenseKernelScratch* scratch) const {
  const size_t need = max_cols_;
  if (scratch->a_.size() < need) scratch->a_.resize(need);
  if (scratch->b_.size() < need) scratch->b_.resize(need);
  std::copy(row, row + input_cols_, scratch->a_.data());
  return Execute(1, steps_.size(), scratch)[0];
}

Status DenseKernel::PrepareBatch(const FeatureSource& src,
                                 DenseKernelScratch* scratch) const {
  FLOCK_RETURN_NOT_OK(status_);
  if (src.width() != input_cols_) {
    return Status::InvalidArgument(
        "dense kernel expects " + std::to_string(input_cols_) +
        " input columns, got " + std::to_string(src.width()));
  }
  const size_t need = kBlockRows * max_cols_;
  if (scratch->a_.size() < need) scratch->a_.resize(need);
  if (scratch->b_.size() < need) scratch->b_.resize(need);
  if (scratch->acc_.size() < kBlockRows) {
    scratch->acc_.resize(kBlockRows);
    scratch->active_.resize(kBlockRows);
  }
  return Status::OK();
}

Status DenseKernel::ScoreBatch(const FeatureSource& src,
                               DenseKernelScratch* scratch,
                               double* out) const {
  FLOCK_RETURN_NOT_OK(PrepareBatch(src, scratch));
  const size_t n = src.num_rows;
  // The per-block cancellation poll: with deep ensembles a single batch
  // can take tens of milliseconds, so the executor's morsel-boundary
  // check alone would not bound kill latency. The request token arrives
  // thread-locally (installed by the executor's drive loop) because
  // scoring is reached through expression evaluation, which has no
  // context parameter path.
  const CancelToken& cancel = CancelToken::Current();
  // The final step is width >= 1 per row; score is column 0. When the
  // last step was in-place (e.g. trailing Sigmoid over a 1-wide buffer),
  // rows are packed at the final step's output width.
  const size_t stride = steps_.back().out_cols;
  for (size_t begin = 0; begin < n; begin += kBlockRows) {
    FLOCK_RETURN_NOT_OK(cancel.Check("dense_kernel.block"));
    const size_t rows = std::min(kBlockRows, n - begin);
    src.Gather(begin, rows, scratch->a_.data());
    const double* scores = Execute(rows, steps_.size(), scratch);
    for (size_t r = 0; r < rows; ++r) out[begin + r] = scores[r * stride];
  }
  return Status::OK();
}

Status DenseKernel::ScoreBatch(const Matrix& raw,
                               DenseKernelScratch* scratch,
                               std::vector<double>* out) const {
  out->resize(raw.rows());
  return ScoreBatch(FeatureSource::FromMatrix(raw), scratch, out->data());
}

Status DenseKernel::ThresholdBatch(const Matrix& raw, double threshold,
                                   ThresholdOp op, bool before_sigmoid,
                                   DenseKernelScratch* scratch,
                                   std::vector<bool>* out) const {
  std::vector<uint8_t> verdicts(raw.rows());
  FLOCK_RETURN_NOT_OK(ThresholdBatch(FeatureSource::FromMatrix(raw),
                                     threshold, op, before_sigmoid, scratch,
                                     verdicts.data()));
  out->assign(verdicts.begin(), verdicts.end());
  return Status::OK();
}

Status DenseKernel::ThresholdBatch(const FeatureSource& src,
                                   double threshold, ThresholdOp op,
                                   bool before_sigmoid,
                                   DenseKernelScratch* scratch,
                                   uint8_t* out) const {
  FLOCK_RETURN_NOT_OK(PrepareBatch(src, scratch));
  size_t end = steps_.size();
  if (before_sigmoid) {
    if (steps_.back().op != OpType::kSigmoid) {
      return Status::InvalidArgument(
          "dense kernel: plan does not end in Sigmoid");
    }
    --end;
  }
  // Early exit applies to a boosted (summed) ensemble producing z; an
  // averaged forest, or any other plan, scores fully and compares.
  const Step* forest = nullptr;
  if (end > 0 && steps_[end - 1].op == OpType::kTreeEnsemble &&
      !steps_[end - 1].tree_average && steps_[end - 1].num_trees > 0) {
    forest = &steps_[end - 1];
  }
  const size_t stride = end == 0 ? input_cols_ : steps_[end - 1].out_cols;
  const size_t n = src.num_rows;
  const CancelToken& cancel = CancelToken::Current();
  for (size_t begin = 0; begin < n; begin += kBlockRows) {
    FLOCK_RETURN_NOT_OK(cancel.Check("dense_kernel.block"));
    const size_t rows = std::min(kBlockRows, n - begin);
    src.Gather(begin, rows, scratch->a_.data());
    if (forest == nullptr) {
      const double* z = Execute(rows, end, scratch);
      for (size_t r = 0; r < rows; ++r) {
        out[begin + r] = EvalThreshold(op, z[r * stride], threshold);
      }
      continue;
    }
    const double* x = Execute(rows, end - 1, scratch);
    double* acc = scratch->acc_.data();
    uint32_t* active = scratch->active_.data();
    size_t live = rows;
    for (size_t r = 0; r < rows; ++r) {
      acc[r] = forest->tree_base;
      active[r] = static_cast<uint32_t>(r);
    }
    for (size_t t = 0; t < forest->num_trees && live > 0; ++t) {
      AddTree(*forest, t, x, active, live, acc);
      // The final score lies in [acc + smin, acc + smax] given the trees
      // still to come; a row whose whole interval falls on one side of
      // the threshold is decided now and leaves the active list.
      const double lo_rest = forest->suffix_min[t + 1];
      const double hi_rest = forest->suffix_max[t + 1];
      size_t kept = 0;
      for (size_t i = 0; i < live; ++i) {
        const uint32_t r = active[i];
        const double lo = acc[r] + lo_rest;
        const double hi = acc[r] + hi_rest;
        const bool verdict = EvalThreshold(op, lo, threshold);
        if (verdict == EvalThreshold(op, hi, threshold) && lo <= hi) {
          out[begin + r] = verdict;
        } else {
          active[kept++] = r;
        }
      }
      live = kept;
    }
    // Rows never decided (a NaN sum or bound) compare their full score.
    for (size_t i = 0; i < live; ++i) {
      const uint32_t r = active[i];
      out[begin + r] = EvalThreshold(op, acc[r], threshold);
    }
  }
  return Status::OK();
}

}  // namespace flock::ml
