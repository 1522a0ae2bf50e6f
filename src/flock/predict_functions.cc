#include "flock/predict_functions.h"

#include <span>

#include "flock/scoring.h"

namespace flock::flock {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;

namespace {

/// The argument's value on the call's first row (model names and
/// thresholds are constants; a column argument is read at its first row).
storage::Value FirstValue(const sql::ScoringArg& arg) {
  if (arg.constant != nullptr) return *arg.constant;
  return arg.column->GetValue(arg.rows != nullptr ? arg.rows[0] : 0);
}

/// Resolves the model-name argument, once per call.
StatusOr<const ModelEntry*> ResolveModel(const ModelRegistry* models,
                                         const ScoringContext& context,
                                         const sql::ScoringArg& name_arg,
                                         size_t num_rows) {
  const storage::Value name_value = FirstValue(name_arg);
  if (name_value.is_null() || name_value.type() != DataType::kString) {
    return Status::InvalidArgument(
        "PREDICT: first argument must be a model name");
  }
  const std::string& name = name_value.string_value();
  if (name.find('#') != std::string::npos) {
    FLOCK_ASSIGN_OR_RETURN(const ModelEntry* entry,
                           models->GetSpecialization(name));
    // Specializations inherit the base model's access policy and audit
    // trail — the optimizer must not become a permission bypass.
    if (!entry->base_name.empty()) {
      FLOCK_RETURN_NOT_OK(models->CheckAccess(
          entry->base_name, context.principal, num_rows));
    }
    return entry;
  }
  return models->GetForScoring(name, context.principal, num_rows);
}

/// Binds the feature arguments and, when a feature observer is installed,
/// hands it the assembled matrix (assembled only in that case).
StatusOr<ml::FeatureSource> BindAndObserve(
    const ModelEntry& entry, const ScoringContext& context,
    std::span<const sql::ScoringArg> features, size_t num_rows) {
  FLOCK_ASSIGN_OR_RETURN(ml::FeatureSource src,
                         BindFeatures(entry, features, num_rows));
  if (FeatureObserver* obs =
          context.observer.load(std::memory_order_acquire)) {
    obs->ObserveFeatures(entry, src.ToMatrix(), num_rows);
  }
  return src;
}

}  // namespace

void RegisterPredictFunctions(sql::FunctionRegistry* functions,
                              ModelRegistry* models,
                              std::shared_ptr<ScoringContext> context) {
  // PREDICT(model, features...) -> DOUBLE
  {
    sql::ScalarFunction fn;
    fn.return_type = DataType::kDouble;
    fn.min_args = 1;
    // Lowered to a PredictScore physical operator.
    fn.scoring_kernel = [models, context](
                            const std::vector<sql::ScoringArg>& args,
                            size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kDouble);
      if (num_rows == 0) return out;
      FLOCK_ASSIGN_OR_RETURN(
          const ModelEntry* entry,
          ResolveModel(models, *context, args[0], num_rows));
      FLOCK_ASSIGN_OR_RETURN(
          ml::FeatureSource features,
          BindAndObserve(*entry, *context,
                         std::span(args).subspan(1), num_rows));
      if (num_rows == 1) {
        // Serving-layer micro-batching: a single-row PREDICT (point
        // lookup) offers itself to the coalescer, which merges
        // concurrent requests into one shared kernel invocation.
        if (ScoreCoalescer* coalescer =
                context->coalescer.load(std::memory_order_acquire)) {
          std::vector<double> row(features.width());
          features.Gather(0, 1, row.data());
          FLOCK_ASSIGN_OR_RETURN(
              double score,
              coalescer->ScoreOne(*entry, row.data(), row.size()));
          out->AppendDouble(score);
          return out;
        }
      }
      FLOCK_RETURN_NOT_OK(
          ScoreFeatures(*entry, features, out->ExtendDoubles(num_rows)));
      return out;
    };
    functions->Register("PREDICT", fn);
  }

  // PREDICT_GT/GE/LT/LE(model, threshold, features...) -> BOOL
  auto register_threshold = [&](const std::string& name, ThresholdOp op) {
    sql::ScalarFunction fn;
    fn.return_type = DataType::kBool;
    fn.min_args = 2;
    // Threshold push-up target, also a PredictScore operator.
    fn.scoring_kernel = [models, context, op](
                            const std::vector<sql::ScoringArg>& args,
                            size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kBool);
      if (num_rows == 0) return out;
      FLOCK_ASSIGN_OR_RETURN(
          const ModelEntry* entry,
          ResolveModel(models, *context, args[0], num_rows));
      const storage::Value threshold = FirstValue(args[1]);
      if (threshold.is_null()) {
        return Status::InvalidArgument(
            "PREDICT threshold must be a non-null constant");
      }
      FLOCK_ASSIGN_OR_RETURN(
          ml::FeatureSource features,
          BindAndObserve(*entry, *context,
                         std::span(args).subspan(2), num_rows));
      FLOCK_RETURN_NOT_OK(ScoreThresholdFeatures(
          *entry, features, threshold.AsDouble(), op,
          out->ExtendBools(num_rows)));
      return out;
    };
    functions->Register(name, fn);
  };
  register_threshold("PREDICT_GT", ThresholdOp::kGt);
  register_threshold("PREDICT_GE", ThresholdOp::kGe);
  register_threshold("PREDICT_LT", ThresholdOp::kLt);
  register_threshold("PREDICT_LE", ThresholdOp::kLe);
}

}  // namespace flock::flock
