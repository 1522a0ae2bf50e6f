// Shared plumbing of the repo benchmark: command-line arguments, the
// per-run report (metrics, phase accounting, the final JSON line),
// order statistics, and the timing of the SQL layers' public functions.
#ifndef FLOCKBENCH_UTIL_H_
#define FLOCKBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "flock/cross_optimizer.h"
#include "flock/flock_engine.h"
#include "sql/physical_plan.h"
#include "sql/plan_cache.h"

namespace flockbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is printed with tracing
/// off, `per_layer` with tracing on; `named` holds the workload's own
/// end-to-end figures under their descriptive names (printed, not part
/// of the final JSON line).
struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> named;

  /// Prints one phase's request accounting and folds it into the run's
  /// attempted/failed totals.
  void Phase(const std::string& phase, uint64_t attempted,
             uint64_t succeeded);
  /// Records an answer mismatch: the run will report correct=false and
  /// exit non-zero.
  void Mismatch(const std::string& what);
};

/// A configuration the workload depends on did not take effect: prints
/// the reason and exits non-zero without printing any number.
[[noreturn]] void GateFailed(const std::string& what);
/// Set-up or load could not run at all; exits non-zero.
[[noreturn]] void Fatal(const std::string& what);

/// The latency recorded for a request that failed, was refused or returned
/// the wrong rows: longer than any run can last, so a failure misses every
/// latency limit and shedding slow requests cannot improve a percentile.
/// Finite, so the figures stay valid JSON.
constexpr double kFailedLatencyMs = 1e9;

/// Linear-interpolated percentile (p in [0, 100]) of `values`.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Engine counters read before and after a load: plan-cache lookups and
/// table segments scanned or pruned.
struct EngineCounters {
  ::flock::sql::PlanCacheStats cache;
  uint64_t segments_scanned = 0;
  uint64_t segments_pruned = 0;

  static EngineCounters Read(::flock::flock::FlockEngine* engine);
};

/// What a load of `statements` statements did between two readings.
struct CounterDelta {
  uint64_t lookups = 0;
  double hit_rate = 0.0;
  double scanned_per_statement = 0.0;
  double pruned_per_statement = 0.0;
};
CounterDelta Delta(const EngineCounters& before, const EngineCounters& after,
                   double statements);

/// Mean cost of each SQL layer's public function over `statements`, run
/// quiescently on the calling thread: Parser::Parse, SqlEngine::PlanQuery,
/// SqlEngine::OptimizePlan (including the cross-optimizer hook),
/// PhysicalPlanner::Lower, SqlEngine::ExecutePhysical and
/// PlanCache::Lookup. Also counts rows the scans examined against rows
/// returned, and keeps the cross-optimizer stats of the last rewrite.
struct SqlLayerTimes {
  double parse_us = 0.0;
  double plan_us = 0.0;
  double optimize_us = 0.0;
  double lower_us = 0.0;
  double execute_us = 0.0;
  double lookup_us = 0.0;
  double rows_examined = 0.0;
  double rows_returned = 0.0;
  ::flock::flock::CrossOptimizer::Stats last_rewrite;
};
SqlLayerTimes TimeSqlLayers(::flock::flock::FlockEngine* engine,
                            const std::vector<std::string>& statements,
                            int repeats);

/// Per-row cost of the scoring entry points on a deployed model, over the
/// rows `feature_sql` returns (one column per model input, in input
/// order): flock::AssembleFeatures, flock::ScoreBatch,
/// flock::ScoreThresholdBatch (GT `threshold`), DenseKernel::ScoreRow with
/// a warmed scratch, and GraphRuntime::RunToScores.
struct ScoringTimes {
  double assemble_ns = 0.0;
  double batch_ns = 0.0;
  double threshold_ns = 0.0;
  double kernel_row_ns = 0.0;
  double runtime_ns = 0.0;
};
ScoringTimes TimeScoring(::flock::flock::FlockEngine* engine,
                         const std::string& model,
                         const std::string& feature_sql, double threshold);

/// The per-layer metrics every workload reports: SQL layer costs, plan
/// cache and storage counters over the load, scoring entry points, and the
/// cross-optimizer's counts for `rewrite`.
std::vector<Metric> EngineLayerMetrics(
    const SqlLayerTimes& sql, const CounterDelta& load,
    const ScoringTimes& scoring,
    const ::flock::flock::CrossOptimizer::Stats& rewrite);

/// Sum of thread-summed operator wall time by operator family ("scan",
/// "filter", "predict", "aggregate") in one statement's operator metrics.
double OperatorFamilyMs(
    const std::vector<::flock::sql::OperatorMetricsSnapshot>& ops,
    const std::string& family);

/// A traced run splits its load into this many rounds, half of them
/// traced (timing the extra calls the per-layer figures need). Rounds
/// alternate, and each pair swaps which side goes first so that drift
/// over the run (a growing table, say) does not bias the overhead.
constexpr int kTraceRounds = 6;
inline bool TracedRound(int round) {
  return (round % 2 == 1) != ((round / 2) % 2 == 1);
}

/// Tracing overhead from alternating untraced/traced rounds of the same
/// load: per pair the relative change of a latency statistic, reported as
/// the median over pairs with its min..max, against the spread between
/// the untraced rounds themselves.
struct Overhead {
  double median_pct = 0.0;
  double min_pct = 0.0;
  double max_pct = 0.0;
  double noise_pct = 0.0;
  bool within_noise = true;
};
Overhead TracingOverhead(const std::vector<double>& untraced,
                         const std::vector<double>& traced);
void PrintOverhead(const std::string& what, const Overhead& overhead);

}  // namespace flockbench

#endif  // FLOCKBENCH_UTIL_H_
