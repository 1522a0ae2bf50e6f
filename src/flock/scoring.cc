#include "flock/scoring.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "ml/runtime.h"

namespace flock::flock {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;

namespace {

/// Per-thread kernel scratch: the executor scores one morsel at a time
/// per thread, and kernels are immutable and shared, so one scratch per
/// thread serves every model without allocation in steady state.
ml::DenseKernelScratch* ThreadScratch() {
  thread_local ml::DenseKernelScratch scratch;
  return &scratch;
}

/// Rejects feature sources whose width does not match the entry's input
/// arity (nothing is silently dropped or skipped).
Status CheckArity(const ModelEntry& entry, size_t width) {
  if (width != entry.graph.input_cols()) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " +
        std::to_string(entry.graph.input_cols()) +
        " feature columns, got " + std::to_string(width) +
        " (extra features are never dropped, missing ones never skipped)");
  }
  return Status::OK();
}

Status StringForNumeric(const ModelEntry& entry, const ml::FeatureSpec& spec) {
  return Status::InvalidArgument("numeric feature '" + spec.name +
                                 "' of model " + entry.name +
                                 " received a string column");
}

/// A SQL column as a kernel source column (no vocabulary yet).
ml::FeatureColumn ColumnSource(const ColumnVector& col,
                               const uint32_t* rows) {
  ml::FeatureColumn out;
  out.rows = rows;
  out.validity = col.validity().data();
  switch (col.type()) {
    case DataType::kDouble:
      out.type = ml::FeatureColumn::Type::kDouble;
      out.values = col.doubles().data();
      break;
    case DataType::kInt64:
      out.type = ml::FeatureColumn::Type::kInt64;
      out.values = col.ints().data();
      break;
    case DataType::kBool:
      out.type = ml::FeatureColumn::Type::kBool;
      out.values = col.bools().data();
      break;
    case DataType::kString:
      out.type = ml::FeatureColumn::Type::kString;
      out.values = col.strings().data();
      break;
  }
  return out;
}

/// The encoded value of a literal argument: NULL and unknown categories
/// are NaN, as for columns.
double ConstantCode(const storage::Value& v,
                    const std::vector<std::string>& vocab) {
  if (v.is_null()) return std::nan("");
  if (v.type() != DataType::kString) return v.AsDouble();
  auto it = std::find(vocab.begin(), vocab.end(), v.string_value());
  return it == vocab.end() ? std::nan("")
                           : static_cast<double>(it - vocab.begin());
}

}  // namespace

StatusOr<ml::FeatureSource> BindFeatures(
    const ModelEntry& entry, std::span<const sql::ScoringArg> args,
    size_t num_rows) {
  const size_t width = entry.graph.input_cols();
  if (args.size() != width) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " + std::to_string(width) +
        " feature arguments, got " + std::to_string(args.size()));
  }
  ml::FeatureSource src;
  src.num_rows = num_rows;
  src.columns.resize(width);
  for (size_t c = 0; c < width; ++c) {
    size_t pipeline_input =
        entry.input_mapping.empty() ? c : entry.input_mapping[c];
    const ml::FeatureSpec& spec = entry.pipeline.inputs()[pipeline_input];
    const bool categorical = spec.kind == ml::FeatureKind::kCategorical;
    const sql::ScoringArg& arg = args[c];
    ml::FeatureColumn& col = src.columns[c];
    if (arg.constant != nullptr) {
      const storage::Value& v = *arg.constant;
      if (!v.is_null() && v.type() == DataType::kString && !categorical) {
        return StringForNumeric(entry, spec);
      }
      col.type = ml::FeatureColumn::Type::kConstant;
      col.constant = ConstantCode(v, spec.vocab);
      continue;
    }
    col = ColumnSource(*arg.column, arg.rows);
    // A non-string column for a categorical arrives already index-encoded.
    if (col.type == ml::FeatureColumn::Type::kString) {
      if (!categorical) return StringForNumeric(entry, spec);
      col.vocab = &spec.vocab;
    }
  }
  return src;
}

StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry, const std::vector<ColumnVectorPtr>& args,
    size_t num_rows) {
  std::vector<sql::ScoringArg> views(args.size());
  for (size_t c = 0; c < args.size(); ++c) views[c].column = args[c].get();
  FLOCK_ASSIGN_OR_RETURN(ml::FeatureSource src,
                         BindFeatures(entry, views, num_rows));
  return src.ToMatrix();
}

Status ScoreFeatures(const ModelEntry& entry,
                     const ml::FeatureSource& features, double* out) {
  FLOCK_RETURN_NOT_OK(CheckArity(entry, features.width()));
  if (entry.kernel != nullptr && entry.kernel->ok()) {
    // The compiled dense-slot kernel: slot resolution happened once at
    // deploy time.
    return entry.kernel->ScoreBatch(features, ThreadScratch(), out);
  }
  ml::GraphRuntime runtime(&entry.graph);
  FLOCK_ASSIGN_OR_RETURN(std::vector<double> scores,
                         runtime.RunToScores(features.ToMatrix()));
  std::copy(scores.begin(), scores.end(), out);
  return Status::OK();
}

Status ScoreThresholdFeatures(const ModelEntry& entry,
                              const ml::FeatureSource& features,
                              double threshold, ThresholdOp op,
                              uint8_t* out) {
  FLOCK_RETURN_NOT_OK(CheckArity(entry, features.width()));
  const size_t n = features.num_rows;
  // Fold a trailing Sigmoid into the threshold: sigmoid is monotone, so
  // sigmoid(z) OP t  <=>  z OP logit(t) for t in (0, 1).
  double raw_threshold = threshold;
  if (entry.ends_with_sigmoid) {
    // sigmoid(z) lies strictly inside (0, 1): thresholds at or beyond the
    // ends resolve statically.
    if (threshold <= 0.0) {
      std::fill_n(out, n, op == ThresholdOp::kGt || op == ThresholdOp::kGe);
      return Status::OK();
    }
    if (threshold >= 1.0) {
      std::fill_n(out, n, op == ThresholdOp::kLt || op == ThresholdOp::kLe);
      return Status::OK();
    }
    raw_threshold = std::log(threshold / (1.0 - threshold));
  }

  if (entry.kernel != nullptr && entry.kernel->ok()) {
    return entry.kernel->ThresholdBatch(features, raw_threshold, op,
                                        entry.ends_with_sigmoid,
                                        ThreadScratch(), out);
  }

  // Graphs the kernel does not compile: full scoring, then compare at the
  // sigmoid's input (or at the output).
  const ml::Matrix raw = features.ToMatrix();
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
  for (size_t r = 0; r < n; ++r) {
    out[r] = ml::EvalThreshold(op, z[r], raw_threshold);
  }
  return Status::OK();
}

StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw) {
  std::vector<double> scores(raw.rows());
  FLOCK_RETURN_NOT_OK(ScoreFeatures(entry, ml::FeatureSource::FromMatrix(raw),
                                    scores.data()));
  return scores;
}

StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op) {
  std::vector<uint8_t> verdicts(raw.rows());
  FLOCK_RETURN_NOT_OK(ScoreThresholdFeatures(
      entry, ml::FeatureSource::FromMatrix(raw), threshold, op,
      verdicts.data()));
  return std::vector<bool>(verdicts.begin(), verdicts.end());
}

}  // namespace flock::flock
