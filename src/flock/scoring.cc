#include "flock/scoring.h"

#include <cmath>
#include <string>

#include "ml/runtime.h"

namespace flock::flock {

using storage::ColumnVectorPtr;
using storage::DataType;

namespace {

/// Copies a numeric (or already index-encoded) column into every
/// `stride`-th slot of `dst`, one typed loop per column type; NULL → NaN.
void CopyNumericColumn(const storage::ColumnVector& col, size_t num_rows,
                       double* dst, size_t stride) {
  const double nan = std::nan("");
  switch (col.type()) {
    case DataType::kDouble: {
      const double* values = col.doubles().data();
      for (size_t r = 0; r < num_rows; ++r) {
        dst[r * stride] = col.IsNull(r) ? nan : values[r];
      }
      break;
    }
    case DataType::kInt64: {
      const int64_t* values = col.ints().data();
      for (size_t r = 0; r < num_rows; ++r) {
        dst[r * stride] =
            col.IsNull(r) ? nan : static_cast<double>(values[r]);
      }
      break;
    }
    case DataType::kBool:
      for (size_t r = 0; r < num_rows; ++r) {
        dst[r * stride] =
            col.IsNull(r) ? nan : (col.bool_at(r) ? 1.0 : 0.0);
      }
      break;
    case DataType::kString:
      break;  // strings are encoded through a vocabulary instead
  }
}

/// Encodes a string column through `vocab` (index of the first match):
/// NULL or an unknown category → NaN, as Pipeline::EncodeCategorical.
void EncodeStringColumn(const storage::ColumnVector& col, size_t num_rows,
                        const std::vector<std::string>& vocab, double* dst,
                        size_t stride) {
  const double nan = std::nan("");
  for (size_t r = 0; r < num_rows; ++r) {
    double code = nan;
    if (!col.IsNull(r)) {
      const std::string& value = col.string_at(r);
      for (size_t i = 0; i < vocab.size(); ++i) {
        if (vocab[i] == value) {
          code = static_cast<double>(i);
          break;
        }
      }
    }
    dst[r * stride] = code;
  }
}

/// Per-thread kernel scratch: the executor scores one morsel at a time
/// per thread, and kernels are immutable and shared, so one scratch per
/// thread serves every model without allocation in steady state.
ml::DenseKernelScratch* ThreadScratch() {
  thread_local ml::DenseKernelScratch scratch;
  return &scratch;
}

}  // namespace

StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry, const std::vector<ColumnVectorPtr>& args,
    size_t num_rows) {
  const size_t width = entry.graph.input_cols();
  if (args.size() != width) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " + std::to_string(width) +
        " feature arguments, got " + std::to_string(args.size()));
  }
  ml::Matrix raw(num_rows, width);
  for (size_t c = 0; c < width; ++c) {
    size_t pipeline_input =
        entry.input_mapping.empty() ? c : entry.input_mapping[c];
    const ml::FeatureSpec& spec =
        entry.pipeline.inputs()[pipeline_input];
    const storage::ColumnVector& col = *args[c];
    double* dst = raw.data().data() + c;
    if (col.type() != DataType::kString) {
      // Numeric, or a categorical that arrives already index-encoded.
      CopyNumericColumn(col, num_rows, dst, width);
    } else if (spec.kind == ml::FeatureKind::kCategorical) {
      EncodeStringColumn(col, num_rows, spec.vocab, dst, width);
    } else {
      return Status::InvalidArgument(
          "numeric feature '" + spec.name + "' of model " + entry.name +
          " received a string column");
    }
  }
  return raw;
}

Status CheckScoringArity(const ModelEntry& entry, const ml::Matrix& raw) {
  if (raw.cols() != entry.graph.input_cols()) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " +
        std::to_string(entry.graph.input_cols()) +
        " feature columns, got " + std::to_string(raw.cols()) +
        " (extra features are never dropped, missing ones never skipped)");
  }
  return Status::OK();
}

StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw) {
  FLOCK_RETURN_NOT_OK(CheckScoringArity(entry, raw));
  if (entry.kernel != nullptr && entry.kernel->ok()) {
    // The compiled dense-slot kernel: slot resolution happened once at
    // deploy time.
    std::vector<double> scores;
    FLOCK_RETURN_NOT_OK(
        entry.kernel->ScoreBatch(raw, ThreadScratch(), &scores));
    return scores;
  }
  ml::GraphRuntime runtime(&entry.graph);
  return runtime.RunToScores(raw);
}

StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op) {
  FLOCK_RETURN_NOT_OK(CheckScoringArity(entry, raw));
  const size_t n = raw.rows();
  // Fold a trailing Sigmoid into the threshold: sigmoid is monotone, so
  // sigmoid(z) OP t  <=>  z OP logit(t) for t in (0, 1).
  double raw_threshold = threshold;
  if (entry.ends_with_sigmoid) {
    // sigmoid(z) lies strictly inside (0, 1): thresholds at or beyond the
    // ends resolve statically.
    if (threshold <= 0.0) {
      bool verdict = op == ThresholdOp::kGt || op == ThresholdOp::kGe;
      return std::vector<bool>(n, verdict);
    }
    if (threshold >= 1.0) {
      bool verdict = op == ThresholdOp::kLt || op == ThresholdOp::kLe;
      return std::vector<bool>(n, verdict);
    }
    raw_threshold = std::log(threshold / (1.0 - threshold));
  }

  std::vector<bool> out;
  if (entry.kernel != nullptr && entry.kernel->ok()) {
    FLOCK_RETURN_NOT_OK(entry.kernel->ThresholdBatch(
        raw, raw_threshold, op, entry.ends_with_sigmoid, ThreadScratch(),
        &out));
    return out;
  }

  // Graphs the kernel does not compile: full scoring, then compare at the
  // sigmoid's input (or at the output).
  ml::GraphRuntime runtime(&entry.graph);
  std::vector<double> z;
  if (entry.ends_with_sigmoid) {
    const ml::GraphNode& sig =
        entry.graph.nodes()[static_cast<size_t>(entry.graph.output_id())];
    FLOCK_ASSIGN_OR_RETURN(ml::Matrix logits,
                           runtime.RunToNode(raw, sig.inputs[0]));
    z.resize(n);
    for (size_t r = 0; r < n; ++r) z[r] = logits.at(r, 0);
  } else {
    FLOCK_ASSIGN_OR_RETURN(z, runtime.RunToScores(raw));
  }
  out.resize(n);
  for (size_t r = 0; r < n; ++r) {
    out[r] = ml::EvalThreshold(op, z[r], raw_threshold);
  }
  return out;
}

}  // namespace flock::flock
