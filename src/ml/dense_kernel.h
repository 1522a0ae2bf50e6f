#ifndef FLOCK_ML_DENSE_KERNEL_H_
#define FLOCK_ML_DENSE_KERNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/matrix.h"

namespace flock::ml {

/// Comparison direction of a threshold predicate `score OP t`.
enum class ThresholdOp { kGt, kGe, kLt, kLe };

/// `score OP threshold`; false for a NaN score under every op.
inline bool EvalThreshold(ThresholdOp op, double score, double threshold) {
  switch (op) {
    case ThresholdOp::kGt:
      return score > threshold;
    case ThresholdOp::kGe:
      return score >= threshold;
    case ThresholdOp::kLt:
      return score < threshold;
    case ThresholdOp::kLe:
      return score <= threshold;
  }
  return false;
}

/// One kernel input column, read where it lies. Source row i is element
/// `e = rows ? rows[i] : i`: the value `values[e * stride]` (typed by
/// `type`), NULL when `validity` is set and `validity[e] == 0`. NULLs,
/// and strings missing from `vocab`, read as NaN.
struct FeatureColumn {
  enum class Type : uint8_t {
    kDouble,    // const double*
    kInt64,     // const int64_t*
    kBool,      // const uint8_t*, nonzero = true
    kString,    // const std::string*, encoded through `vocab`
    kConstant,  // `constant` on every row; values/rows unused
  };
  Type type = Type::kDouble;
  const void* values = nullptr;
  size_t stride = 1;
  const uint8_t* validity = nullptr;  // null = every row valid
  const uint32_t* rows = nullptr;     // null = identity
  /// kString: a value's code is the index of its first match in `vocab`.
  const std::vector<std::string>* vocab = nullptr;
  double constant = 0.0;
};

/// The rows a kernel scores: `num_rows` rows of `columns.size()` inputs,
/// each column read in place. A row-major Matrix is one more layout
/// (`FromMatrix`), whose blocks load with a single contiguous copy.
struct FeatureSource {
  size_t num_rows = 0;
  std::vector<FeatureColumn> columns;
  /// Set for a row-major source: row r's inputs start at
  /// `row_major + r * columns.size()`.
  const double* row_major = nullptr;

  size_t width() const { return columns.size(); }

  /// Views `raw` (which must outlive the source) as a source.
  static FeatureSource FromMatrix(const Matrix& raw);

  /// Writes rows [begin, begin + count) into `dst`, row-major and
  /// `width()` wide — the only copy between a column and the kernel.
  void Gather(size_t begin, size_t count, double* dst) const;

  /// Every row as a row-major matrix (for consumers that need one).
  Matrix ToMatrix() const;
};

/// Reusable scratch buffers for DenseKernel execution. One per thread (or
/// per call site); the kernel itself stays immutable and shareable. The
/// buffers grow to the widest step of whichever kernels score through them
/// and are never shrunk, so steady-state scoring performs no allocation.
class DenseKernelScratch {
 public:
  DenseKernelScratch() = default;

 private:
  friend class DenseKernel;
  std::vector<double> a_, b_;
  // ThresholdBatch: per-row running tree sums and the undecided rows.
  std::vector<double> acc_;
  std::vector<uint32_t> active_;
};

/// Compiled dense-slot scoring kernel — the production scoring path for
/// PREDICT and PREDICT_GT/GE/LT/LE.
///
/// Where `RowScorer` interprets a pipeline through per-step named-feature
/// maps (the Figure-4 "scikit-learn" baseline) and `GraphRuntime`
/// re-allocates one matrix per node per invocation, the dense kernel does
/// all name→slot resolution and plan validation once at construction:
/// every step is lowered to a fixed-width transform over contiguous
/// `double` buffers, with attributes (imputer fills, scale/offset vectors,
/// one-hot layout, gemm weights, trees) copied into the kernel so it is
/// self-contained and immutable afterwards.
///
/// Tree layout: a TreeEnsemble step whose max depth D is at most
/// `kMaxPerfectDepth` is laid out as perfect trees in struct-of-arrays
/// form — per tree `2^D-1` int32 feature slots, `2^D-1` double thresholds
/// and `2^D` leaves, tree after tree. A leaf above depth D is padded by
/// copying its value into every descendant leaf, so the branch taken under
/// the padding does not matter. Traversal is branch-free, always D steps
/// of `q = 2q+1 + !(x[f[q]] < t[q])` (NaN goes right, as in
/// `Tree::Predict`), tree-major over a block with 8 rows in flight per
/// tree. Deeper ensembles keep the pointer-chasing `Tree::Predict`
/// loop — the only fallback.
///
/// Execution contracts:
///  * `ScoreRow` scores a single dense row with zero allocation (given a
///    warmed scratch).
///  * `ScoreBatch` scores a whole source (a morsel's columns, or a
///    matrix) in blocks of `kBlockRows` rows, gathering each block once
///    into scratch. Summation order per row is unchanged, so results are
///    bitwise identical to `ScoreRow` and to `GraphRuntime`.
///  * `ThresholdBatch` evaluates `score OP t` per row. For a boosted
///    ensemble ending the compared prefix, it walks the trees tree-major
///    over the block's undecided rows and, after every tree, decides the
///    rows whose final score is already bounded to one side of `t` by the
///    suffix min/max of the remaining trees' leaves; those rows leave the
///    active list. Other plans score fully and compare.
///  Both batch entry points poll the request's `CancelToken` per block.
///
/// Only linear single-input op chains are compiled (which is everything
/// `Pipeline::Compile` and the cross-optimizer emit). Graphs using Concat
/// or non-chain wiring leave the kernel in a not-ok state and callers fall
/// back to `GraphRuntime`; `status()` says why.
class DenseKernel {
 public:
  /// Compiles `graph` into a dense step plan. The graph is only read
  /// during construction; it need not outlive the kernel.
  explicit DenseKernel(const ModelGraph& graph);

  /// True when the graph compiled to a dense plan; the scoring entry
  /// points must only be called on an ok kernel.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  size_t input_cols() const { return input_cols_; }
  size_t num_steps() const { return steps_.size(); }
  /// Max depth of the plan's tree ensemble, counted up to
  /// kMaxPerfectDepth + 1 (0 without one). Ensembles deeper than
  /// kMaxPerfectDepth traverse through `Tree::Predict`.
  size_t tree_depth() const;

  /// Scores one dense row of exactly `input_cols()` values (categoricals
  /// index-encoded, NULLs as NaN — the AssembleFeatures layout).
  double ScoreRow(const double* row, DenseKernelScratch* scratch) const;

  /// Scores every row of `src` (`src.width()` must equal `input_cols()`)
  /// into `out[0, src.num_rows)`. Reuses `scratch` across blocks; no
  /// per-row allocation.
  Status ScoreBatch(const FeatureSource& src, DenseKernelScratch* scratch,
                    double* out) const;
  /// The same over a row-major matrix; `out` is resized to raw.rows().
  Status ScoreBatch(const Matrix& raw, DenseKernelScratch* scratch,
                    std::vector<double>* out) const;

  /// Writes `z OP threshold` (1 or 0) for every row of `src` into
  /// `out[0, src.num_rows)`. z is the final score, or — with
  /// `before_sigmoid`, for a plan ending in Sigmoid — the Sigmoid's input,
  /// so the caller can pass a logit threshold. A NaN z compares false
  /// under every op.
  Status ThresholdBatch(const FeatureSource& src, double threshold,
                        ThresholdOp op, bool before_sigmoid,
                        DenseKernelScratch* scratch, uint8_t* out) const;
  /// The same over a row-major matrix; `out` is resized to raw.rows().
  Status ThresholdBatch(const Matrix& raw, double threshold, ThresholdOp op,
                        bool before_sigmoid, DenseKernelScratch* scratch,
                        std::vector<bool>* out) const;

  /// Rows per block in the batch entry points; exposed for tests/benches.
  static constexpr size_t kBlockRows = 256;
  /// Deepest ensemble laid out as perfect trees (a depth-10 tree is
  /// ~20 KB); deeper ones keep `Tree::Predict`.
  static constexpr size_t kMaxPerfectDepth = 10;
 private:
  /// Rows traversed side by side per tree, for instruction-level
  /// parallelism across the independent node loads.
  static constexpr size_t kLanes = 8;

  struct Step {
    OpType op = OpType::kIdentity;
    size_t in_cols = 0;
    size_t out_cols = 0;
    // kImputer
    std::vector<double> fill;
    // kScaler: out = (in - offset) * scale
    std::vector<double> offset, scale;
    // kOneHot: per input slot, 0 = pass-through, k = expand to k slots
    std::vector<int> onehot_sizes;
    // kGemm
    Matrix weights;  // [out_cols x in_cols]
    std::vector<double> bias;
    // kTreeEnsemble: perfect layout (depth <= kMaxPerfectDepth) in
    // node_feature/node_threshold/leaf_value, else deep_trees.
    size_t num_trees = 0;
    size_t depth = 0;
    std::vector<int32_t> node_feature;   // num_trees * (2^depth - 1)
    std::vector<double> node_threshold;  // num_trees * (2^depth - 1)
    std::vector<double> leaf_value;      // num_trees * 2^depth
    std::vector<Tree> deep_trees;
    // [t] = sum over trees t.. of their min/max leaf; [num_trees] = 0.
    std::vector<double> suffix_min, suffix_max;
    double tree_base = 0.0;
    bool tree_average = false;
    // kBinarizer
    double binarizer_threshold = 0.5;
  };

  /// Lays `trees` out into `step` (perfect or deep, plus suffix bounds).
  static Status CompileForest(const std::vector<Tree>& trees, Step* step);

  /// Adds tree `t`'s leaf for each of the `count` listed rows of the
  /// block `x` (row stride = step.in_cols) to `acc[row]`.
  static void AddTree(const Step& step, size_t t, const double* x,
                      const uint32_t* rows, size_t count, double* acc);

  /// Runs steps [0, end) over `n` rows held densely in scratch buffer
  /// `a_` (row-major, input_cols wide). Leaves the output in whichever
  /// buffer the last step wrote and returns a pointer to it.
  const double* Execute(size_t n, size_t end,
                        DenseKernelScratch* scratch) const;

  /// Checks arity and sizes `scratch` for blocks of `src`'s rows.
  Status PrepareBatch(const FeatureSource& src,
                      DenseKernelScratch* scratch) const;

  Status status_;
  size_t input_cols_ = 0;
  size_t max_cols_ = 0;  // widest step output (scratch sizing)
  std::vector<Step> steps_;
};

}  // namespace flock::ml

#endif  // FLOCK_ML_DENSE_KERNEL_H_
