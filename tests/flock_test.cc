#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/random.h"
#include "flock/flock_engine.h"
#include "flock/scoring.h"
#include "ml/tree.h"

namespace flock::flock {
namespace {

using storage::DataType;
using storage::Value;

/// Trains a GBDT churn pipeline over (age, income, tenure, clicks, 4 noise
/// columns, plan) and loads matching rows into a `users` table.
class FlockEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kNumeric = 8;  // 4 signal + 4 noise
  static constexpr size_t kRows = 4000;

  FlockEngineTest() : engine_(MakeOptions()) {
    BuildTableAndModel();
  }

  static FlockEngineOptions MakeOptions() {
    FlockEngineOptions options;
    options.sql.num_threads = 2;
    return options;
  }

  void BuildTableAndModel() {
    auto r = engine_.Execute(
        "CREATE TABLE users (id INT, age DOUBLE, income DOUBLE, "
        "tenure DOUBLE, clicks DOUBLE, n0 DOUBLE, n1 DOUBLE, n2 DOUBLE, "
        "n3 DOUBLE, plan VARCHAR)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    Random rng(2024);
    const char* plans[] = {"basic", "plus", "pro"};
    ml::Matrix raw(kRows, kNumeric + 1);
    std::vector<double> labels(kRows);

    auto table = engine_.database()->GetTable("users");
    ASSERT_TRUE(table.ok());
    storage::RecordBatch batch((*table)->schema());
    for (size_t i = 0; i < kRows; ++i) {
      double age = 20 + rng.NextDouble() * 50;
      double income = 30 + rng.NextDouble() * 120;
      double tenure = rng.NextDouble() * 10;
      double clicks = rng.NextDouble() * 100;
      size_t plan = rng.Uniform(3);
      raw.at(i, 0) = age;
      raw.at(i, 1) = income;
      raw.at(i, 2) = tenure;
      raw.at(i, 3) = clicks;
      for (size_t c = 4; c < kNumeric; ++c) {
        raw.at(i, c) = rng.NextGaussian();
      }
      raw.at(i, kNumeric) = static_cast<double>(plan);
      double z = 0.08 * (age - 45) - 0.02 * (income - 90) -
                 0.4 * tenure + 0.03 * clicks +
                 (plan == 0 ? 1.0 : (plan == 1 ? 0.0 : -1.0)) +
                 rng.NextGaussian() * 0.3;
      labels[i] = z > 0 ? 1.0 : 0.0;
      ASSERT_TRUE(batch
                      .AppendRow({Value::Int(static_cast<int64_t>(i)),
                                  Value::Double(age), Value::Double(income),
                                  Value::Double(tenure),
                                  Value::Double(clicks),
                                  Value::Double(raw.at(i, 4)),
                                  Value::Double(raw.at(i, 5)),
                                  Value::Double(raw.at(i, 6)),
                                  Value::Double(raw.at(i, 7)),
                                  Value::String(plans[plan])})
                      .ok());
    }
    ASSERT_TRUE((*table)->AppendBatch(batch).ok());

    std::vector<ml::FeatureSpec> specs;
    const char* names[] = {"age",    "income", "tenure", "clicks",
                           "n0",     "n1",     "n2",     "n3"};
    for (const char* n : names) {
      specs.push_back(ml::FeatureSpec{n, ml::FeatureKind::kNumeric, {}});
    }
    specs.push_back(ml::FeatureSpec{
        "plan", ml::FeatureKind::kCategorical, {"basic", "plus", "pro"}});

    pipeline_.SetInputs(specs);
    pipeline_.set_task(ml::ModelTask::kBinaryClassification);
    pipeline_.FitFeaturizers(raw, true, true);
    ml::Dataset features;
    features.x = pipeline_.Transform(raw);
    features.y = labels;
    ml::GbtOptions gbt;
    gbt.num_trees = 20;
    gbt.max_depth = 4;
    pipeline_.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
    ASSERT_TRUE(engine_.DeployModel("churn", pipeline_, "tester",
                                    "train-run-1")
                    .ok());
  }

  sql::QueryResult Exec(const std::string& sql) {
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : sql::QueryResult{};
  }

  static std::string PredictCall() {
    return "PREDICT(churn, age, income, tenure, clicks, n0, n1, n2, n3, "
           "plan)";
  }

  FlockEngine engine_;
  ml::Pipeline pipeline_;
};

TEST_F(FlockEngineTest, PredictInProjection) {
  auto r = Exec("SELECT id, " + PredictCall() +
                " AS score FROM users LIMIT 5");
  ASSERT_EQ(r.batch.num_rows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    double s = r.batch.column(1)->double_at(i);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(FlockEngineTest, PredictMatchesPipelineScoreRow) {
  auto r = Exec("SELECT age, income, tenure, clicks, n0, n1, n2, n3, "
                "plan, " + PredictCall() + " AS score FROM users LIMIT 64");
  for (size_t i = 0; i < r.batch.num_rows(); ++i) {
    std::vector<double> raw(9);
    for (size_t c = 0; c < 8; ++c) raw[c] = r.batch.column(c)->double_at(i);
    raw[8] = pipeline_.EncodeCategorical(8,
                                         r.batch.column(8)->string_at(i));
    EXPECT_NEAR(r.batch.column(9)->double_at(i),
                pipeline_.ScoreRow(raw.data()), 1e-9);
  }
}

TEST_F(FlockEngineTest, OptimizedEqualsUnoptimizedOnThresholdQuery) {
  const std::string query =
      "SELECT id FROM users WHERE income > 50 AND " + PredictCall() +
      " > 0.7 ORDER BY id";
  engine_.set_enable_cross_optimizer(false);
  auto baseline = Exec(query);
  engine_.set_enable_cross_optimizer(true);
  auto optimized = Exec(query);
  ASSERT_EQ(baseline.batch.num_rows(), optimized.batch.num_rows());
  for (size_t i = 0; i < baseline.batch.num_rows(); ++i) {
    EXPECT_EQ(baseline.batch.column(0)->int_at(i),
              optimized.batch.column(0)->int_at(i));
  }
  EXPECT_GT(optimized.batch.num_rows(), 0u);
}

TEST_F(FlockEngineTest, OptimizerEquivalenceAcrossThresholdsAndOps) {
  const char* ops[] = {">", ">=", "<", "<="};
  const double thresholds[] = {0.2, 0.5, 0.8};
  for (const char* op : ops) {
    for (double t : thresholds) {
      std::string query = "SELECT COUNT(*) FROM users WHERE " +
                          PredictCall() + " " + op + " " +
                          std::to_string(t);
      engine_.set_enable_cross_optimizer(false);
      auto baseline = Exec(query);
      engine_.set_enable_cross_optimizer(true);
      auto optimized = Exec(query);
      EXPECT_EQ(baseline.batch.column(0)->int_at(0),
                optimized.batch.column(0)->int_at(0))
          << "op=" << op << " t=" << t;
    }
  }
}

TEST_F(FlockEngineTest, OptimizerToggleReplansCachedStatement) {
  // The plan cache keys on SQL text alone, so toggling the optimizer must
  // drop plans optimized under the other setting: the statement re-plans,
  // EXPLAIN gains or loses the pushed-up PREDICT_GT, and re-enabling runs
  // the rewrites again. (Rewrite stats describe the latest Rewrite call.)
  const std::string query = "SELECT id FROM users WHERE income > 50 AND " +
                            PredictCall() + " > 0.7 ORDER BY id";
  auto has_push_up = [&] {
    return Exec("EXPLAIN " + query).plan_text.find("PREDICT_GT") !=
           std::string::npos;
  };
  const auto& stats = engine_.cross_optimizer()->stats();
  ASSERT_TRUE(engine_.enable_cross_optimizer());
  auto optimized = Exec(query);
  EXPECT_EQ(stats.predicates_pushed_up, 1u);
  EXPECT_TRUE(Exec(query).from_plan_cache);
  // A statement without an ML predicate leaves zeroed rewrite stats.
  Exec("SELECT " + PredictCall() + " FROM users LIMIT 1");
  ASSERT_EQ(stats.predicates_pushed_up, 0u);

  engine_.set_enable_cross_optimizer(false);
  auto plain = Exec(query);
  EXPECT_FALSE(plain.from_plan_cache);
  EXPECT_NE(plain.plan_digest, optimized.plan_digest);
  EXPECT_EQ(stats.predicates_pushed_up, 0u);
  EXPECT_FALSE(has_push_up());

  engine_.set_enable_cross_optimizer(true);
  auto again = Exec(query);
  EXPECT_FALSE(again.from_plan_cache);
  EXPECT_EQ(again.plan_digest, optimized.plan_digest);
  EXPECT_EQ(stats.predicates_pushed_up, 1u);
  EXPECT_TRUE(has_push_up());

  ASSERT_EQ(plain.batch.num_rows(), optimized.batch.num_rows());
  ASSERT_EQ(again.batch.num_rows(), optimized.batch.num_rows());
  for (size_t i = 0; i < optimized.batch.num_rows(); ++i) {
    EXPECT_EQ(plain.batch.column(0)->int_at(i),
              optimized.batch.column(0)->int_at(i));
  }
}

TEST_F(FlockEngineTest, CrossOptimizerReportsRewrites) {
  Exec("SELECT id FROM users WHERE income > 50 AND " + PredictCall() +
       " > 0.7");
  const auto& stats = engine_.cross_optimizer()->stats();
  EXPECT_EQ(stats.filters_split, 1u);
  EXPECT_EQ(stats.predicates_pushed_up, 1u);
  EXPECT_GT(stats.features_pruned, 0u);  // noise features exist
  EXPECT_GT(engine_.models()->num_specializations(), 0u);
}

TEST_F(FlockEngineTest, ExplainShowsSeparatedFilters) {
  auto r = Exec("EXPLAIN SELECT id FROM users WHERE income > 50 AND " +
                PredictCall() + " > 0.7");
  // The ML predicate and the data predicate end up in separate filters,
  // with the PREDICT_GT intrinsic in the upper one.
  EXPECT_NE(r.plan_text.find("PREDICT_GT"), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("income"), std::string::npos);
}

TEST_F(FlockEngineTest, ExplainShowsPredictScoreOperator) {
  auto r = Exec("EXPLAIN SELECT id FROM users WHERE income > 50 AND " +
                PredictCall() + " > 0.7");
  // Model scoring is lowered into a first-class physical operator, placed
  // above the pushed-down data filter.
  EXPECT_NE(r.plan_text.find("== Physical Plan =="), std::string::npos)
      << r.plan_text;
  EXPECT_NE(r.plan_text.find("PredictScore"), std::string::npos)
      << r.plan_text;
}

TEST_F(FlockEngineTest, PredictQuerySurfacesScoringMetrics) {
  auto r = Exec("SELECT id FROM users WHERE " + PredictCall() + " > 0.7");
  bool found_predict_score = false;
  for (const auto& m : r.operator_metrics) {
    if (m.name.find("PredictScore") != std::string::npos) {
      found_predict_score = true;
      EXPECT_GT(m.rows_in, 0u) << m.name;
    }
  }
  EXPECT_TRUE(found_predict_score);
}

TEST_F(FlockEngineTest, PruningNarrowsScanToUsedColumns) {
  auto r = Exec("EXPLAIN SELECT " + PredictCall() + " FROM users");
  // Noise columns that the model ignores should vanish from the scan.
  const auto* entry = *engine_.models()->Get("churn");
  std::vector<bool> used = entry->graph.UsedInputColumns();
  bool any_noise_unused = !used[4] || !used[5] || !used[6] || !used[7];
  if (any_noise_unused) {
    // At least one of n0..n3 must not appear in the scan column list.
    size_t missing = 0;
    for (const char* col : {"n0", "n1", "n2", "n3"}) {
      if (r.plan_text.find(col) == std::string::npos) ++missing;
    }
    EXPECT_GT(missing, 0u) << r.plan_text;
  }
}

TEST_F(FlockEngineTest, CreateAndDropModelViaSql) {
  std::string serialized = pipeline_.Serialize();
  // Escape single quotes for SQL (serialized text has none, but be safe).
  auto r = engine_.Execute("CREATE MODEL churn2 FROM '" + serialized + "'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(engine_.models()->Contains("churn2"));
  auto score = Exec(
      "SELECT PREDICT(churn2, age, income, tenure, clicks, n0, n1, n2, "
      "n3, plan) FROM users LIMIT 1");
  EXPECT_EQ(score.batch.num_rows(), 1u);
  ASSERT_TRUE(engine_.Execute("DROP MODEL churn2").ok());
  EXPECT_FALSE(engine_.models()->Contains("churn2"));
}

TEST_F(FlockEngineTest, ModelVersioningOnRedeploy) {
  EXPECT_EQ(engine_.models()->CurrentVersion("churn"), 1u);
  ASSERT_TRUE(engine_.DeployModel("churn", pipeline_, "tester", "retrain")
                  .ok());
  EXPECT_EQ(engine_.models()->CurrentVersion("churn"), 2u);
  auto v1 = engine_.models()->GetVersion("churn", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->lineage, "train-run-1");
}

TEST_F(FlockEngineTest, AccessControlDeniesAndAudits) {
  ASSERT_TRUE(
      engine_.models()->SetAccessControl("churn", {"alice"}).ok());
  engine_.SetPrincipal("mallory");
  auto denied = engine_.Execute("SELECT " + PredictCall() + " FROM users");
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  engine_.SetPrincipal("alice");
  auto ok = engine_.Execute(
      "SELECT " + PredictCall() + " FROM users LIMIT 1");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  bool saw_denied = false, saw_score = false;
  for (const auto& event : engine_.models()->audit_log()) {
    if (event.kind == AuditEvent::Kind::kDenied &&
        event.principal == "mallory") {
      saw_denied = true;
    }
    if (event.kind == AuditEvent::Kind::kScore &&
        event.principal == "alice") {
      saw_score = true;
    }
  }
  EXPECT_TRUE(saw_denied);
  EXPECT_TRUE(saw_score);
}

TEST_F(FlockEngineTest, ScoringAuditFoldsMorselsIntoOneEvent) {
  // Access is checked once per morsel; a scan over several morsels (here
  // 2 on 2 threads) leaves one SCORE event carrying every scored row.
  auto score_events_since = [&](size_t from) {
    std::vector<AuditEvent> out;
    std::vector<AuditEvent> log = engine_.models()->audit_log();
    for (size_t i = from; i < log.size(); ++i) {
      if (log[i].kind == AuditEvent::Kind::kScore) out.push_back(log[i]);
    }
    return out;
  };
  ASSERT_GT(kRows, sql::ExecutorOptions().morsel_size);
  size_t before = engine_.models()->audit_log().size();
  Exec("SELECT AVG(" + PredictCall() + ") FROM users");
  std::vector<AuditEvent> scored = score_events_since(before);
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].model, "churn");
  EXPECT_EQ(scored[0].rows, kRows);

  // A denial is recorded as its own event, and the next grant starts a
  // new SCORE event rather than extending one from before the denial.
  ASSERT_TRUE(engine_.models()->SetAccessControl("churn", {"alice"}).ok());
  engine_.SetPrincipal("mallory");
  auto denied = engine_.Execute("SELECT AVG(" + PredictCall() + ") FROM users");
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  std::vector<AuditEvent> log = engine_.models()->audit_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().kind, AuditEvent::Kind::kDenied);
  EXPECT_EQ(log.back().principal, "mallory");

  engine_.SetPrincipal("alice");
  before = engine_.models()->audit_log().size();
  Exec("SELECT AVG(" + PredictCall() + ") FROM users");
  Exec("SELECT AVG(" + PredictCall() + ") FROM users");
  scored = score_events_since(before);
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].principal, "alice");
  EXPECT_EQ(scored[0].rows, 2 * kRows);
}

TEST_F(FlockEngineTest, UnknownModelErrors) {
  auto r = engine_.Execute("SELECT PREDICT(ghost, age) FROM users");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(FlockEngineTest, WrongArityErrors) {
  auto r = engine_.Execute("SELECT PREDICT(churn, age) FROM users");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FlockEngineTest, DeployTransactionCommitsAtomically) {
  DeployTransaction txn = engine_.BeginDeployment();
  txn.StageRegister("m_a", pipeline_, "tester");
  txn.StageRegister("m_b", pipeline_, "tester");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(engine_.models()->Contains("m_a"));
  EXPECT_TRUE(engine_.models()->Contains("m_b"));
}

TEST_F(FlockEngineTest, DeployTransactionRollsBackOnFailure) {
  uint64_t churn_version = engine_.models()->CurrentVersion("churn");
  DeployTransaction txn = engine_.BeginDeployment();
  txn.StageRegister("churn", pipeline_, "tester", "v2-candidate");
  txn.StageRegister("m_new", pipeline_, "tester");
  txn.StageDrop("does_not_exist");  // forces failure
  Status st = txn.Commit();
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  // Rollback: m_new gone; churn back to a working (prior) pipeline.
  EXPECT_FALSE(engine_.models()->Contains("m_new"));
  auto restored = engine_.models()->Get("churn");
  ASSERT_TRUE(restored.ok());
  EXPECT_GE(engine_.models()->CurrentVersion("churn"), churn_version);
  auto ok = Exec("SELECT " + PredictCall() + " FROM users LIMIT 1");
  EXPECT_EQ(ok.batch.num_rows(), 1u);
}

TEST_F(FlockEngineTest, DeployRollbackRacesConcurrentScorers) {
  // A failing deploy transaction (register churn v2, then a drop that
  // aborts the batch) undoes its staged changes while scorer threads
  // hammer PREDICT. The commit-undo sequence runs under the engine's
  // exclusive lock, so every concurrent query must see a working model —
  // either the prior version or the restored one — and never fail.
  // Run under TSan to verify the cutover path is race-free.
  constexpr int kScorers = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scored{0};
  std::atomic<uint64_t> failed{0};
  // Queries finished per scorer; the deployer waits on these so every
  // commit really races live scorers instead of finishing before the
  // threads have started.
  std::atomic<uint64_t> finished[kScorers] = {};
  std::mutex err_mu;
  std::string first_error;
  std::vector<std::thread> scorers;
  for (int t = 0; t < kScorers; ++t) {
    scorers.emplace_back([&, t] {
      // The pause between queries leaves write-lock windows: glibc's
      // rwlock favors readers, so back-to-back shared acquisitions from
      // two threads would starve Commit's exclusive lock indefinitely.
      while (!stop.load(std::memory_order_acquire)) {
        auto r = engine_.Execute("SELECT " + PredictCall() +
                                 " FROM users LIMIT 4");
        if (r.ok()) {
          scored.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error.empty()) first_error = r.status().ToString();
        }
        finished[t].fetch_add(1, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Waits until every scorer has finished at least one more query.
  auto await_scorers = [&] {
    uint64_t seen[kScorers];
    for (int t = 0; t < kScorers; ++t) {
      seen[t] = finished[t].load(std::memory_order_acquire);
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (int t = 0; t < kScorers; ++t) {
      while (finished[t].load(std::memory_order_acquire) == seen[t]) {
        if (std::chrono::steady_clock::now() > give_up) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return true;
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(await_scorers()) << "scorers stalled before commit " << i;
    DeployTransaction txn = engine_.BeginDeployment();
    txn.StageRegister("churn", pipeline_, "tester", "race-candidate");
    txn.StageDrop("does_not_exist");  // forces failure + undo-restore
    EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : scorers) t.join();
  EXPECT_EQ(failed.load(), 0u) << first_error;
  EXPECT_GT(scored.load(), 0u);
  // The undo left churn serving its prior pipeline.
  auto ok = Exec("SELECT " + PredictCall() + " FROM users LIMIT 1");
  EXPECT_EQ(ok.batch.num_rows(), 1u);
}

TEST_F(FlockEngineTest, NullFeaturesGoThroughImputer) {
  Exec("INSERT INTO users (id, age, plan) VALUES (99999, NULL, 'pro')");
  auto r = Exec("SELECT " + PredictCall() +
                " FROM users WHERE id = 99999");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  double s = r.batch.column(0)->double_at(0);
  EXPECT_FALSE(std::isnan(s));
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST_F(FlockEngineTest, CrossOptimizerOptionsChangeReplansCachedStatement) {
  // Options changes clear the plan cache like the master switch does: the
  // cached statement re-plans under the new rules, and again when they
  // are restored.
  const std::string query = "SELECT id FROM users WHERE income > 50 AND " +
                            PredictCall() + " > 0.7 ORDER BY id";
  const auto& stats = engine_.cross_optimizer()->stats();
  auto pushed = Exec(query);
  EXPECT_EQ(stats.predicates_pushed_up, 1u);
  EXPECT_TRUE(Exec(query).from_plan_cache);

  CrossOptimizer::Options no_pushup;
  no_pushup.predicate_pushup = false;
  engine_.set_cross_optimizer_options(no_pushup);
  EXPECT_FALSE(engine_.cross_optimizer()->options().predicate_pushup);
  auto plain = Exec(query);
  EXPECT_FALSE(plain.from_plan_cache);
  EXPECT_EQ(stats.predicates_pushed_up, 0u);
  EXPECT_NE(plain.plan_digest, pushed.plan_digest);
  EXPECT_EQ(Exec("EXPLAIN " + query).plan_text.find("PREDICT_GT"),
            std::string::npos);

  engine_.set_cross_optimizer_options(CrossOptimizer::Options{});
  auto again = Exec(query);
  EXPECT_FALSE(again.from_plan_cache);
  EXPECT_EQ(stats.predicates_pushed_up, 1u);
  EXPECT_EQ(again.plan_digest, pushed.plan_digest);

  ASSERT_EQ(plain.batch.num_rows(), pushed.batch.num_rows());
  for (size_t i = 0; i < pushed.batch.num_rows(); ++i) {
    EXPECT_EQ(plain.batch.column(0)->int_at(i),
              pushed.batch.column(0)->int_at(i));
  }
}

TEST_F(FlockEngineTest, UncompressedPlanSurvivesInsert) {
  // The users table spans the whole training range, so compression finds
  // nothing to fold for a point query: the plan embeds no statistics and
  // DML must not evict it.
  const std::string query =
      "SELECT id, " + PredictCall() + " FROM users WHERE id = 7";
  const auto& stats = engine_.cross_optimizer()->stats();
  auto first = Exec(query);
  EXPECT_FALSE(first.from_plan_cache);
  EXPECT_EQ(stats.tree_nodes_compressed, 0u);
  Exec("INSERT INTO users (id, age, income, tenure, clicks, n0, n1, n2, "
       "n3, plan) VALUES (5000, 33.0, 70.0, 2.0, 10.0, 0, 0, 0, 0, 'pro')");
  auto after = Exec(query);
  EXPECT_TRUE(after.from_plan_cache);
  ASSERT_EQ(after.batch.num_rows(), 1u);
  EXPECT_EQ(after.batch.column(1)->double_at(0),
            first.batch.column(1)->double_at(0));
}

TEST_F(FlockEngineTest, ConcurrentMissesSpecializeOncePerKey) {
  // A copy of the users table sorted by age, in 500-row segments: a point
  // query's surviving segment bounds age to a narrow band, so every
  // segment is its own compression key. Eight threads run distinct
  // point queries (all plan-cache misses); the scores must equal a serial
  // run bit for bit, and each key must be specialized once.
  constexpr size_t kSegmentRows = 500;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 25;
  auto users = engine_.database()->GetTable("users");
  ASSERT_TRUE(users.ok());
  ASSERT_TRUE(engine_.database()
                  ->CreateTable("cohort", (*users)->schema(), kSegmentRows)
                  .ok());
  auto cohort = engine_.database()->GetTable("cohort");
  ASSERT_TRUE(cohort.ok());
  {
    storage::RecordBatch all = (*users)->ScanAll();
    std::vector<size_t> order(all.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return all.column(1)->double_at(a) < all.column(1)->double_at(b);
    });
    storage::RecordBatch sorted((*users)->schema());
    for (size_t rank = 0; rank < order.size(); ++rank) {
      std::vector<Value> row = all.GetRow(order[rank]);
      row[0] = Value::Int(static_cast<int64_t>(rank));
      ASSERT_TRUE(sorted.AppendRow(row).ok());
    }
    ASSERT_TRUE((*cohort)->AppendBatch(sorted).ok());
  }
  ASSERT_EQ((*cohort)->num_segments(), kRows / kSegmentRows);

  const size_t stride = kRows / (kThreads * kPerThread);
  std::vector<std::string> statements;
  for (size_t q = 0; q < kThreads * kPerThread; ++q) {
    statements.push_back("SELECT id, " + PredictCall() +
                         " FROM cohort WHERE id = " +
                         std::to_string(q * stride));
  }
  auto specialized = [&] {
    std::vector<std::string> names;
    for (const AuditEvent& e : engine_.models()->audit_log()) {
      if (e.kind == AuditEvent::Kind::kSpecialize &&
          e.model.find("#c") != std::string::npos) {
        names.push_back(e.model);
      }
    }
    return names;
  };

  std::vector<double> concurrent(statements.size());
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = t; q < statements.size(); q += kThreads) {
        auto r = engine_.Execute(statements[q]);
        if (!r.ok() || r->from_plan_cache || r->batch.num_rows() != 1) {
          failures.fetch_add(1);
          continue;
        }
        concurrent[q] = r->batch.column(1)->double_at(0);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);

  // One decision per segment, and one specialization per positive one.
  EXPECT_EQ(engine_.models()->num_compression_decisions(),
            (*cohort)->num_segments());
  std::vector<std::string> names = specialized();
  EXPECT_GT(names.size(), 0u);
  EXPECT_LE(names.size(), (*cohort)->num_segments());
  std::vector<std::string> unique = names;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(unique.size(), names.size());

  // Serial re-plan: memo hits, the same specializations, the same bits.
  engine_.sql()->plan_cache()->Clear();
  for (size_t q = 0; q < statements.size(); ++q) {
    auto serial = Exec(statements[q]);
    ASSERT_EQ(serial.batch.num_rows(), 1u);
    EXPECT_FALSE(serial.from_plan_cache);
    EXPECT_EQ(serial.batch.column(1)->double_at(0), concurrent[q])
        << statements[q];
  }
  EXPECT_EQ(specialized(), names);

  // And the uncompressed model agrees.
  engine_.set_enable_cross_optimizer(false);
  for (size_t q = 0; q < statements.size(); ++q) {
    auto plain = Exec(statements[q]);
    ASSERT_EQ(plain.batch.num_rows(), 1u);
    EXPECT_EQ(plain.batch.column(1)->double_at(0), concurrent[q])
        << statements[q];
  }
}

// --- compression decisions keyed on exact statistics ----------------------

TEST(CrossOptimizerCompressionTest, CompressedPlanReplansAfterInsert) {
  // A GBDT trained on ages 20-70 scores a table that holds ages 20-30
  // only. Compression folds every split above 30; a row inserted at age 69
  // must not be scored by that specialization from the plan cache.
  FlockEngineOptions options;
  options.sql.num_threads = 1;
  FlockEngine engine(options);
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE users (id INT, age DOUBLE, income DOUBLE)")
          .ok());

  Random rng(77);
  constexpr size_t kTrain = 2000;
  ml::Matrix raw(kTrain, 2);
  std::vector<double> labels(kTrain);
  for (size_t i = 0; i < kTrain; ++i) {
    raw.at(i, 0) = 20 + rng.NextDouble() * 50;
    raw.at(i, 1) = 30 + rng.NextDouble() * 120;
    double z = 0.1 * (raw.at(i, 0) - 45) - 0.02 * (raw.at(i, 1) - 90) +
               rng.NextGaussian() * 0.3;
    labels[i] = z > 0 ? 1.0 : 0.0;
  }
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"age", ml::FeatureKind::kNumeric, {}},
                      ml::FeatureSpec{"income", ml::FeatureKind::kNumeric,
                                      {}}});
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  ml::GbtOptions gbt;
  gbt.num_trees = 20;
  gbt.max_depth = 4;
  pipeline.SetTreeModel(ml::TrainGradientBoosting(features, gbt));
  ASSERT_TRUE(engine.DeployModel("churn", pipeline).ok());

  std::string insert = "INSERT INTO users VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " +
              std::to_string(20 + rng.NextDouble() * 10) + ", " +
              std::to_string(30 + rng.NextDouble() * 120) + ")";
  }
  ASSERT_TRUE(engine.Execute(insert).ok());

  const std::string query =
      "SELECT id, PREDICT(churn, age, income) FROM users WHERE id >= 0";
  auto first = engine.Execute(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(engine.cross_optimizer()->stats().tree_nodes_compressed, 0u);
  auto cached = engine.Execute(query);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_plan_cache);

  ASSERT_TRUE(
      engine.Execute("INSERT INTO users VALUES (1000, 69.0, 40.0)").ok());
  auto after = engine.Execute(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->from_plan_cache);
  ASSERT_EQ(after->batch.num_rows(), 101u);
  bool saw_new_row = false;
  for (size_t r = 0; r < after->batch.num_rows(); ++r) {
    if (after->batch.column(0)->int_at(r) != 1000) continue;
    saw_new_row = true;
    const double row[] = {69.0, 40.0};
    EXPECT_NEAR(after->batch.column(1)->double_at(r), pipeline.ScoreRow(row),
                1e-9);
  }
  EXPECT_TRUE(saw_new_row);
}

TEST(CrossOptimizerCompressionTest, NearbyBoundsDoNotShareSpecialization) {
  // Two trees split at age < 45.0000003 (left leaf 1, right leaf 2). The
  // first query's bound lies above the split and folds both trees; the
  // second's lies 2e-7 lower, below the split, and must not reuse that
  // specialization.
  FlockEngineOptions options;
  options.sql.num_threads = 1;
  FlockEngine engine(options);
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"age", ml::FeatureKind::kNumeric, {}}});
  ml::TreeEnsembleModel model;
  for (int t = 0; t < 2; ++t) {
    ml::TreeNode root;
    root.feature = 0;
    root.threshold = 45.0000003;
    root.left = 1;
    root.right = 2;
    ml::TreeNode left, right;
    left.feature = -1;
    left.value = 1.0;
    right.feature = -1;
    right.value = 2.0;
    ml::Tree tree;
    tree.nodes = {root, left, right};
    model.trees.push_back(tree);
  }
  pipeline.SetTreeModel(model);
  ASSERT_TRUE(engine.DeployModel("m", pipeline).ok());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, age DOUBLE)").ok());
  ASSERT_TRUE(engine
                  .Execute("INSERT INTO t VALUES (1, 45.00000025), "
                           "(2, 50.0), (3, 40.0)")
                  .ok());

  size_t compressed = 0;
  for (const char* bound : {"45.0000004", "45.0000002"}) {
    auto r = engine.Execute(std::string("SELECT id, PREDICT(m, age), age "
                                        "FROM t WHERE age > ") +
                            bound);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    compressed += engine.cross_optimizer()->stats().tree_nodes_compressed;
    for (size_t i = 0; i < r->batch.num_rows(); ++i) {
      const double age = r->batch.column(2)->double_at(i);
      EXPECT_EQ(r->batch.column(1)->double_at(i), pipeline.ScoreRow(&age))
          << "bound " << bound << ", id " << r->batch.column(0)->int_at(i);
    }
  }
  EXPECT_GT(compressed, 0u);  // the first query did specialize
}

// --- scoring unit checks ---------------------------------------------------

TEST(ScoringTest, ThresholdBatchMatchesFullScoring) {
  // Small hand-rolled boosted ensemble.
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}},
                      ml::FeatureSpec{"y", ml::FeatureKind::kNumeric, {}}});
  ml::TreeEnsembleModel model;
  model.logistic = true;
  for (int t = 0; t < 5; ++t) {
    ml::Tree tree;
    ml::TreeNode root;
    root.feature = t % 2;
    root.threshold = 0.3 * t - 0.5;
    root.left = 1;
    root.right = 2;
    ml::TreeNode l, r;
    l.feature = -1;
    l.value = -0.4 + 0.1 * t;
    r.feature = -1;
    r.value = 0.5 - 0.05 * t;
    tree.nodes = {root, l, r};
    model.trees.push_back(tree);
  }
  pipeline.SetTreeModel(model);

  ModelEntry entry;
  entry.name = "toy";
  entry.pipeline = pipeline;
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  entry.graph = std::move(graph).value();
  ModelRegistry::AnalyzeEntry(&entry);
  ASSERT_TRUE(entry.ends_with_sigmoid);
  ASSERT_GE(entry.tree_node_id, 0);

  Random rng(5);
  ml::Matrix raw(500, 2);
  for (size_t i = 0; i < 500; ++i) {
    raw.at(i, 0) = rng.NextGaussian();
    raw.at(i, 1) = rng.NextGaussian();
  }
  auto scores = ScoreBatch(entry, raw);
  ASSERT_TRUE(scores.ok());
  for (double t : {0.3, 0.5, 0.62}) {
    for (ThresholdOp op : {ThresholdOp::kGt, ThresholdOp::kGe,
                           ThresholdOp::kLt, ThresholdOp::kLe}) {
      auto verdicts = ScoreThresholdBatch(entry, raw, t, op);
      ASSERT_TRUE(verdicts.ok());
      for (size_t i = 0; i < 500; ++i) {
        double s = (*scores)[i];
        bool expected = op == ThresholdOp::kGt   ? s > t
                        : op == ThresholdOp::kGe ? s >= t
                        : op == ThresholdOp::kLt ? s < t
                                                 : s <= t;
        EXPECT_EQ((*verdicts)[i], expected) << "row " << i << " t=" << t;
      }
    }
  }
}

TEST(ScoringTest, AssembleFeaturesTypedColumns) {
  // One typed loop per column type: DOUBLE, BIGINT and BOOL numerics, a
  // string categorical through its vocabulary, and a categorical that
  // arrives already index-encoded. NULLs and unknown categories → NaN.
  ml::Pipeline pipeline;
  pipeline.SetInputs(
      {ml::FeatureSpec{"d", ml::FeatureKind::kNumeric, {}},
       ml::FeatureSpec{"i", ml::FeatureKind::kNumeric, {}},
       ml::FeatureSpec{"b", ml::FeatureKind::kNumeric, {}},
       ml::FeatureSpec{"s", ml::FeatureKind::kCategorical, {"a", "b", "c"}},
       ml::FeatureSpec{"k", ml::FeatureKind::kCategorical, {"x", "y"}}});
  ml::LinearModel lm;
  lm.weights.assign(pipeline.feature_width(), 0.5);
  pipeline.SetLinearModel(lm);
  ModelEntry entry;
  entry.name = "typed";
  entry.pipeline = pipeline;
  entry.graph = *pipeline.Compile();
  ModelRegistry::AnalyzeEntry(&entry);

  auto d = std::make_shared<storage::ColumnVector>(DataType::kDouble);
  d->AppendDouble(1.5);
  d->AppendNull();
  d->AppendDouble(-2.25);
  auto i = std::make_shared<storage::ColumnVector>(DataType::kInt64);
  i->AppendInt(7);
  i->AppendInt(-3);
  i->AppendNull();
  auto b = std::make_shared<storage::ColumnVector>(DataType::kBool);
  b->AppendNull();
  b->AppendBool(true);
  b->AppendBool(false);
  auto str = std::make_shared<storage::ColumnVector>(DataType::kString);
  str->AppendString("c");
  str->AppendString("zzz");  // unknown category
  str->AppendNull();
  auto k = std::make_shared<storage::ColumnVector>(DataType::kInt64);
  k->AppendInt(1);
  k->AppendNull();
  k->AppendInt(0);

  auto raw = AssembleFeatures(entry, {d, i, b, str, k}, 3);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const double nan = std::nan("");
  const std::vector<std::vector<double>> expected = {
      {1.5, 7.0, nan, 2.0, 1.0},
      {nan, -3.0, 1.0, nan, nan},
      {-2.25, nan, 0.0, nan, 0.0}};
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      const double got = raw->at(r, c);
      if (std::isnan(expected[r][c])) {
        EXPECT_TRUE(std::isnan(got)) << "row " << r << " col " << c;
      } else {
        EXPECT_EQ(got, expected[r][c]) << "row " << r << " col " << c;
      }
    }
  }

  // A string column fed to a numeric feature is an error, not a zero.
  auto bad = AssembleFeatures(entry, {str, i, b, str, k}, 3);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScoringTest, DegenerateThresholdsResolveStatically) {
  ml::Pipeline pipeline;
  pipeline.SetInputs({ml::FeatureSpec{"x", ml::FeatureKind::kNumeric, {}}});
  ml::LinearModel lm;
  lm.weights = {1.0};
  lm.bias = 0.0;
  lm.logistic = true;
  pipeline.SetLinearModel(lm);
  ModelEntry entry;
  entry.pipeline = pipeline;
  entry.graph = *pipeline.Compile();
  ModelRegistry::AnalyzeEntry(&entry);
  ml::Matrix raw(3, 1, 0.0);
  auto all_true = ScoreThresholdBatch(entry, raw, -0.5, ThresholdOp::kGt);
  ASSERT_TRUE(all_true.ok());
  EXPECT_TRUE((*all_true)[0]);
  auto all_false = ScoreThresholdBatch(entry, raw, 1.5, ThresholdOp::kGt);
  ASSERT_TRUE(all_false.ok());
  EXPECT_FALSE((*all_false)[0]);
}

}  // namespace
}  // namespace flock::flock
