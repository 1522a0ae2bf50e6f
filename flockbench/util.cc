#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "flock/scoring.h"
#include "ml/dense_kernel.h"
#include "ml/runtime.h"
#include "sql/parser.h"
#include "sql/physical_planner.h"
#include "sql/plan_cache.h"

namespace flockbench {

void Report::Phase(const std::string& phase, uint64_t phase_attempted,
                   uint64_t succeeded) {
  uint64_t phase_failed = phase_attempted - succeeded;
  std::printf("phase %s.%s: attempted=%llu succeeded=%llu failed=%llu\n",
              workload.c_str(), phase.c_str(),
              static_cast<unsigned long long>(phase_attempted),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(phase_failed));
  attempted += phase_attempted;
  failed += phase_failed;
}

void Report::Mismatch(const std::string& what) {
  if (correct) std::fprintf(stderr, "ANSWER MISMATCH: %s\n", what.c_str());
  correct = false;
}

void GateFailed(const std::string& what) {
  std::fprintf(stderr, "CONFIGURATION GATE FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(2);
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "FATAL: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(1);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------------ layer timing

EngineCounters EngineCounters::Read(::flock::flock::FlockEngine* engine) {
  EngineCounters out;
  out.cache = engine->sql()->plan_cache()->stats();
  out.segments_scanned = engine->sql()->segments_scanned_total();
  out.segments_pruned = engine->sql()->segments_pruned_total();
  return out;
}

CounterDelta Delta(const EngineCounters& before, const EngineCounters& after,
                   double statements) {
  CounterDelta out;
  uint64_t hits = after.cache.hits - before.cache.hits;
  out.lookups = hits + (after.cache.misses - before.cache.misses);
  out.hit_rate =
      out.lookups == 0 ? 0.0 : static_cast<double>(hits) / out.lookups;
  out.scanned_per_statement =
      (after.segments_scanned - before.segments_scanned) / statements;
  out.pruned_per_statement =
      (after.segments_pruned - before.segments_pruned) / statements;
  return out;
}

SqlLayerTimes TimeSqlLayers(::flock::flock::FlockEngine* engine,
                            const std::vector<std::string>& statements,
                            int repeats) {
  using ::flock::sql::OperatorMetricsSnapshot;
  using ::flock::sql::Parser;
  using ::flock::sql::PhysicalPlanner;
  using ::flock::sql::SelectStatement;
  using ::flock::sql::StatementKind;
  ::flock::sql::SqlEngine* sql = engine->sql();
  SqlLayerTimes out;
  double n = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const std::string& text : statements) {
      int64_t t0 = NowNs();
      auto parsed = Parser::Parse(text);
      int64_t t1 = NowNs();
      if (!parsed.ok() || (*parsed)->kind() != StatementKind::kSelect) {
        Fatal("parse failed for: " + text);
      }
      const auto& select = static_cast<const SelectStatement&>(**parsed);
      auto plan = sql->PlanQuery(select);
      int64_t t2 = NowNs();
      if (!plan.ok()) Fatal("plan failed: " + plan.status().ToString());
      ::flock::Status optimized = sql->OptimizePlan(&*plan);
      int64_t t3 = NowNs();
      if (!optimized.ok()) Fatal("optimize failed: " + optimized.ToString());
      out.last_rewrite = engine->cross_optimizer()->stats();
      PhysicalPlanner planner(sql->functions());
      auto root = planner.Lower(**plan);
      int64_t t4 = NowNs();
      if (!root.ok()) Fatal("lower failed: " + root.status().ToString());
      auto batch = sql->ExecutePhysical(root->get());
      int64_t t5 = NowNs();
      if (!batch.ok()) Fatal("execute failed: " + batch.status().ToString());
      std::string key = ::flock::sql::NormalizeSql(text);
      int64_t t6 = NowNs();
      auto cached = sql->plan_cache()->Lookup(key);
      int64_t t7 = NowNs();
      (void)cached;

      std::vector<OperatorMetricsSnapshot> ops;
      (*root)->CollectMetrics(&ops);
      for (const auto& op : ops) {
        if (op.name.rfind("TableScan", 0) == 0) {
          out.rows_examined += op.rows_out;
        }
      }
      out.rows_returned += static_cast<double>(batch->num_rows());
      out.parse_us += (t1 - t0) / 1e3;
      out.plan_us += (t2 - t1) / 1e3;
      out.optimize_us += (t3 - t2) / 1e3;
      out.lower_us += (t4 - t3) / 1e3;
      out.execute_us += (t5 - t4) / 1e3;
      out.lookup_us += (t7 - t6) / 1e3;
      n += 1.0;
    }
  }
  if (n > 0.0) {
    for (double* v : {&out.parse_us, &out.plan_us, &out.optimize_us,
                      &out.lower_us, &out.execute_us, &out.lookup_us,
                      &out.rows_examined, &out.rows_returned}) {
      *v /= n;
    }
  }
  return out;
}

ScoringTimes TimeScoring(::flock::flock::FlockEngine* engine,
                         const std::string& model,
                         const std::string& feature_sql, double threshold) {
  namespace ff = ::flock::flock;
  constexpr int kRepeats = 5;
  auto result = engine->Execute(feature_sql);
  if (!result.ok()) Fatal("feature export failed: " +
                          result.status().ToString());
  ::flock::storage::RecordBatch batch = result->batch.Materialize();
  const size_t rows = batch.num_rows();
  if (rows == 0) Fatal("feature export returned no rows");
  std::vector<::flock::storage::ColumnVectorPtr> args;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    args.push_back(batch.column(c));
  }
  auto entry_or = engine->models()->Get(model);
  if (!entry_or.ok()) Fatal("model not deployed: " + model);
  const ff::ModelEntry& entry = **entry_or;

  auto per_row = [rows](int64_t ns) {
    return static_cast<double>(ns) / static_cast<double>(rows);
  };
  std::vector<double> assemble, batch_ns, thresh, kernel_row, runtime;
  ::flock::ml::Matrix raw;
  double sink = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    int64_t t0 = NowNs();
    auto assembled = ff::AssembleFeatures(entry, args, rows);
    int64_t t1 = NowNs();
    if (!assembled.ok()) Fatal("AssembleFeatures failed: " +
                               assembled.status().ToString());
    raw = std::move(*assembled);
    assemble.push_back(per_row(t1 - t0));

    t0 = NowNs();
    auto scores = ff::ScoreBatch(entry, raw);
    t1 = NowNs();
    if (!scores.ok()) Fatal("ScoreBatch failed: " + scores.status().ToString());
    sink += (*scores)[0];
    batch_ns.push_back(per_row(t1 - t0));

    t0 = NowNs();
    auto verdicts =
        ff::ScoreThresholdBatch(entry, raw, threshold, ff::ThresholdOp::kGt);
    t1 = NowNs();
    if (!verdicts.ok()) Fatal("ScoreThresholdBatch failed: " +
                              verdicts.status().ToString());
    sink += (*verdicts)[0] ? 1.0 : 0.0;
    thresh.push_back(per_row(t1 - t0));

    if (entry.kernel != nullptr && entry.kernel->ok()) {
      ::flock::ml::DenseKernelScratch scratch;
      sink += entry.kernel->ScoreRow(raw.row(0), &scratch);  // warm scratch
      t0 = NowNs();
      for (size_t r = 0; r < rows; ++r) {
        sink += entry.kernel->ScoreRow(raw.row(r), &scratch);
      }
      t1 = NowNs();
      kernel_row.push_back(per_row(t1 - t0));
    }

    ::flock::ml::GraphRuntime graph_runtime(&entry.graph);
    t0 = NowNs();
    auto graph_scores = graph_runtime.RunToScores(raw);
    t1 = NowNs();
    if (!graph_scores.ok()) Fatal("GraphRuntime failed: " +
                                  graph_scores.status().ToString());
    sink += (*graph_scores)[0];
    runtime.push_back(per_row(t1 - t0));
  }
  if (std::isnan(sink)) std::printf("(scoring sink is NaN)\n");
  ScoringTimes out;
  out.assemble_ns = Median(assemble);
  out.batch_ns = Median(batch_ns);
  out.threshold_ns = Median(thresh);
  out.kernel_row_ns = Median(kernel_row);
  out.runtime_ns = Median(runtime);
  return out;
}

std::vector<Metric> EngineLayerMetrics(
    const SqlLayerTimes& sql, const CounterDelta& load,
    const ScoringTimes& scoring,
    const ::flock::flock::CrossOptimizer::Stats& rewrite) {
  auto count = [](size_t v) { return static_cast<double>(v); };
  return {
      {"sql.parse_us", sql.parse_us, "us"},
      {"sql.plan_us", sql.plan_us, "us"},
      {"sql.optimize_us", sql.optimize_us, "us"},
      {"sql.lower_us", sql.lower_us, "us"},
      {"sql.execute_us", sql.execute_us, "us"},
      {"sql.plan_cache.lookup_us", sql.lookup_us, "us"},
      {"sql.plan_cache.hit_rate", load.hit_rate, "ratio"},
      {"storage.segments_scanned", load.scanned_per_statement, "count"},
      {"storage.segments_pruned", load.pruned_per_statement, "count"},
      {"storage.rows_examined_per_row_returned",
       sql.rows_examined / sql.rows_returned, "ratio"},
      {"score.assemble_ns_per_row", scoring.assemble_ns, "ns"},
      {"score.batch_ns_per_row", scoring.batch_ns, "ns"},
      {"score.threshold_ns_per_row", scoring.threshold_ns, "ns"},
      {"score.kernel_row_ns", scoring.kernel_row_ns, "ns"},
      {"score.runtime_ns_per_row", scoring.runtime_ns, "ns"},
      {"xopt.filters_split", count(rewrite.filters_split), "count"},
      {"xopt.predicates_pushed_up", count(rewrite.predicates_pushed_up),
       "count"},
      {"xopt.features_pruned", count(rewrite.features_pruned), "count"},
      {"xopt.tree_nodes_compressed", count(rewrite.tree_nodes_compressed),
       "count"},
  };
}

double OperatorFamilyMs(
    const std::vector<::flock::sql::OperatorMetricsSnapshot>& ops,
    const std::string& family) {
  static const std::map<std::string, std::vector<std::string>> kPrefixes = {
      {"scan", {"TableScan"}},
      {"filter", {"Filter"}},
      {"predict", {"PredictScore"}},
      {"aggregate", {"HashAggregate"}},
  };
  double total = 0.0;
  for (const auto& op : ops) {
    for (const std::string& prefix : kPrefixes.at(family)) {
      if (op.name.rfind(prefix, 0) == 0) total += op.wall_ms;
    }
  }
  return total;
}

Overhead TracingOverhead(const std::vector<double>& untraced,
                         const std::vector<double>& traced) {
  Overhead out;
  std::vector<double> pct;
  for (size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
    if (untraced[i] > 0.0) {
      pct.push_back((traced[i] / untraced[i] - 1.0) * 100.0);
    }
  }
  if (pct.empty()) return out;
  out.median_pct = Median(pct);
  out.min_pct = *std::min_element(pct.begin(), pct.end());
  out.max_pct = *std::max_element(pct.begin(), pct.end());
  double base = Median(untraced);
  if (base > 0.0) {
    auto [lo, hi] = std::minmax_element(untraced.begin(), untraced.end());
    out.noise_pct = (*hi - *lo) / base * 100.0;
  }
  out.within_noise = std::fabs(out.median_pct) <= out.noise_pct;
  return out;
}

void PrintOverhead(const std::string& what, const Overhead& overhead) {
  std::printf("tracing overhead on %s: %+.2f%% (median of pairs; range "
              "%+.2f%%..%+.2f%%; untraced round-to-round spread %.2f%%) "
              "-> %s\n",
              what.c_str(), overhead.median_pct, overhead.min_pct,
              overhead.max_pct, overhead.noise_pct,
              overhead.within_noise ? "within noise" : "outside noise");
}

}  // namespace flockbench
