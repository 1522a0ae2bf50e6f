#ifndef FLOCK_SQL_FUNCTION_REGISTRY_H_
#define FLOCK_SQL_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "storage/column_vector.h"

namespace flock::sql {

/// A vectorized scalar kernel: consumes evaluated argument columns (each of
/// `num_rows` entries) and produces one output column of `num_rows` entries.
using ScalarKernel = std::function<StatusOr<storage::ColumnVectorPtr>(
    const std::vector<storage::ColumnVectorPtr>& args, size_t num_rows)>;

/// One argument of a scoring call, handed over without copying: a literal
/// stays one Value, and a column reference is the input batch's physical
/// column read at `rows` (null = row i is element i). Any other
/// expression arrives evaluated into a dense column.
struct ScoringArg {
  const storage::Value* constant = nullptr;  // set for a literal
  const storage::ColumnVector* column = nullptr;
  const uint32_t* rows = nullptr;
};

/// A scoring kernel: consumes `num_rows` rows of argument views and
/// produces one dense output column of `num_rows` entries.
using ScoringKernel = std::function<StatusOr<storage::ColumnVectorPtr>(
    const std::vector<ScoringArg>& args, size_t num_rows)>;

/// Metadata + kernel for one scalar function.
struct ScalarFunction {
  ScalarKernel kernel;
  storage::DataType return_type = storage::DataType::kDouble;
  size_t min_args = 0;
  size_t max_args = 64;
  /// Set instead of `kernel` for model-scoring functions (the PREDICT
  /// family). The physical planner hoists calls to scoring functions out
  /// of scalar expressions into a dedicated PredictScore operator so they
  /// execute once per morsel, show up in EXPLAIN, and report their own
  /// OperatorMetrics.
  ScoringKernel scoring_kernel;
};

/// Name -> scalar function table. The SQL engine pre-populates built-ins
/// (ABS, ROUND, SQRT, UPPER, ...); the Flock layer registers PREDICT and
/// model-specific UDFs here. This is the extension point that lets the core
/// engine stay ML-agnostic while supporting in-DBMS inference (paper §4.1).
class FunctionRegistry {
 public:
  FunctionRegistry() = default;

  /// Registers or replaces `name` (case-insensitive).
  void Register(const std::string& name, ScalarFunction fn);

  /// Looks up `name`; NotFound if missing.
  StatusOr<const ScalarFunction*> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// True when `name` is registered with a scoring kernel.
  bool IsScoringFunction(const std::string& name) const;

  std::vector<std::string> ListFunctions() const;

  /// Installs the standard math/string built-ins into `registry`.
  static void RegisterBuiltins(FunctionRegistry* registry);

 private:
  std::map<std::string, ScalarFunction> functions_;  // upper-case keys
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_FUNCTION_REGISTRY_H_
