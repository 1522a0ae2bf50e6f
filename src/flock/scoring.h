#ifndef FLOCK_FLOCK_SCORING_H_
#define FLOCK_FLOCK_SCORING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "flock/model_registry.h"
#include "ml/dense_kernel.h"
#include "ml/matrix.h"
#include "sql/function_registry.h"
#include "storage/column_vector.h"

namespace flock::flock {

/// Comparison direction for threshold-pushed predicates.
using ml::ThresholdOp;

/// Binds the feature arguments of a scoring call (one per graph input, in
/// graph-input order) to kernel source columns that read the SQL columns
/// where they lie, through each argument's row selection. NULLs read as
/// NaN (handled by the pipeline's imputer); string columns are encoded
/// through the pipeline's categorical vocabularies, NULL or unknown
/// categories as NaN; a literal is resolved once into a constant column.
/// A string argument for a numeric feature, or a wrong argument count, is
/// InvalidArgument. The source must not outlive `args`' columns.
StatusOr<ml::FeatureSource> BindFeatures(const ModelEntry& entry,
                                         std::span<const sql::ScoringArg> args,
                                         size_t num_rows);

/// Builds the raw feature matrix for `entry` from dense SQL argument
/// columns: BindFeatures, then every row gathered into a matrix.
StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry,
    const std::vector<storage::ColumnVectorPtr>& args, size_t num_rows);

/// Scores every row of `features` into `out[0, num_rows)` through the
/// entry's compiled dense-slot kernel (built once at deploy time; scratch
/// reused per thread), which gathers each block straight from the source
/// columns. Graph shapes the kernel does not compile fall back to a
/// per-call GraphRuntime. Mismatched arity is an InvalidArgument, never a
/// truncation.
Status ScoreFeatures(const ModelEntry& entry,
                     const ml::FeatureSource& features, double* out);

/// Evaluates `score OP threshold` (1 or 0) for every row of `features`
/// into `out[0, num_rows)` without materializing full scores when
/// possible — the paper's "predicate push-up between SQL queries and ML
/// models" (§4.1). A trailing Sigmoid is folded into the threshold (logit
/// transform), then the entry's kernel decides each row
/// (DenseKernel::ThresholdBatch, which exits boosted ensembles early on
/// suffix bounds). Graphs the kernel does not compile score fully through
/// GraphRuntime and compare.
Status ScoreThresholdFeatures(const ModelEntry& entry,
                              const ml::FeatureSource& features,
                              double threshold, ThresholdOp op,
                              uint8_t* out);

/// ScoreFeatures over a raw feature matrix.
StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw);

/// ScoreThresholdFeatures over a raw feature matrix.
StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op);

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_SCORING_H_
