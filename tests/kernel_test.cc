// The compiled dense-slot scoring kernel suite (ctest label: `kernel`).
//
// Three contracts under test, per the dense-kernel design:
//
//  1. Differential: over the full model zoo (linear, logistic, boosted
//     trees, averaged forest — with one-hot categoricals, NaN imputation
//     and zero-variance columns) the kernel, the interpreted RowScorer
//     and the GraphRuntime produce BITWISE-identical scores. Not "close":
//     the kernel replaced the named-row scorer on the serving hot path,
//     so any ulp of drift would surface as nondeterministic predictions
//     across deploys. The same holds for hand-built ragged ensembles
//     (padded into the perfect-tree layout) and for ensembles deeper than
//     the layout cap (Tree::Predict fallback), and ThresholdBatch
//     verdicts equal a reference per-row Tree::Predict early-exit loop.
//
//  2. Robustness bug-sweep: zero-variance scaler columns no longer divide
//     by zero, rows missing features score as NaN-imputed instead of
//     throwing std::out_of_range, arity mismatches are rejected with an
//     error status at the flock::ScoreBatch boundary, and non-chain
//     graphs fall back to the runtime instead of mis-executing.
//
//  3. Coalescing: the serving layer's MicroBatcher groups concurrent
//     single-row calls into shared kernel invocations with bitwise-equal
//     results, bounded waits, and a drain that flushes partial batches.
//     These tests run under TSan via scripts/check.sh's kernel stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "flock/model_registry.h"
#include "flock/predict_functions.h"
#include "flock/scoring.h"
#include "ml/dataset.h"
#include "ml/dense_kernel.h"
#include "ml/graph.h"
#include "ml/linear.h"
#include "ml/pipeline.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "ml/tree.h"
#include "serve/coalescer.h"
#include "sql/evaluator.h"
#include "sql/function_registry.h"
#include "storage/record_batch.h"

namespace flock::kernel_test {

using ml::Dataset;
using ml::DenseKernel;
using ml::DenseKernelScratch;
using ml::FeatureKind;
using ml::FeatureSpec;
using ml::GraphNode;
using ml::GraphRuntime;
using ml::LinearModel;
using ml::Matrix;
using ml::ModelGraph;
using ml::OpType;
using ml::Pipeline;
using ml::RowScorer;

/// Bitwise double equality: NaN == NaN, and +0.0 != -0.0. This is the
/// stability contract — EXPECT_DOUBLE_EQ would hide ulp drift and choke
/// on NaN propagation rows.
bool BitEq(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

Matrix RandomRaw(size_t rows, size_t numeric, size_t categories,
                 uint64_t seed, double nan_fraction = 0.0) {
  Random rng(seed);
  Matrix raw(rows, numeric + (categories > 0 ? 1 : 0));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < numeric; ++c) {
      raw.at(r, c) = rng.NextDouble() < nan_fraction
                         ? std::nan("")
                         : rng.NextGaussian() * 2.0 + 1.0;
    }
    if (categories > 0) {
      raw.at(r, numeric) = static_cast<double>(rng.Uniform(categories));
    }
  }
  return raw;
}

std::vector<FeatureSpec> NumericSpecs(size_t n) {
  std::vector<FeatureSpec> specs;
  for (size_t c = 0; c < n; ++c) {
    specs.push_back(
        FeatureSpec{"f" + std::to_string(c), FeatureKind::kNumeric, {}});
  }
  return specs;
}

/// The model zoo. Every pipeline has 4 numeric inputs + 1 categorical and
/// fitted imputer/scaler featurizers, so NaN and one-hot paths are always
/// exercised; the variants differ in the model head.
Pipeline MakeZooPipeline(const std::string& kind, uint64_t seed) {
  Matrix fit_raw = RandomRaw(600, 4, 3, seed);
  std::vector<FeatureSpec> specs = NumericSpecs(4);
  specs.push_back(
      FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}});
  Pipeline pipeline;
  pipeline.SetInputs(std::move(specs));
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(fit_raw, /*with_imputer=*/true,
                          /*with_scaler=*/true);

  Matrix raw = RandomRaw(600, 4, 3, seed + 1);
  Dataset features;
  features.x = pipeline.Transform(raw);
  features.y.resize(raw.rows());
  for (size_t r = 0; r < raw.rows(); ++r) {
    features.y[r] =
        (raw.at(r, 0) - raw.at(r, 1) + 0.3 * raw.at(r, 4)) > 0.5 ? 1.0
                                                                 : 0.0;
  }

  if (kind == "linear" || kind == "logistic") {
    ml::LinearTrainerOptions options;
    options.epochs = 12;
    LinearModel model = TrainLinear(features, options);
    model.logistic = (kind == "logistic");
    pipeline.set_task(kind == "logistic"
                          ? ml::ModelTask::kBinaryClassification
                          : ml::ModelTask::kRegression);
    pipeline.SetLinearModel(model);
  } else if (kind == "gbdt") {
    ml::GbtOptions options;
    options.num_trees = 12;
    options.max_depth = 4;
    options.seed = seed;
    pipeline.SetTreeModel(TrainGradientBoosting(features, options));
  } else {  // forest: averaged ensemble, no link
    ml::ForestOptions options;
    options.num_trees = 9;
    options.tree.max_depth = 4;
    pipeline.SetTreeModel(TrainRandomForest(features, options));
  }
  return pipeline;
}

const char* const kZoo[] = {"linear", "logistic", "gbdt", "forest"};

flock::ModelEntry MakeToyEntry() {
  Pipeline pipeline;
  pipeline.SetInputs({FeatureSpec{"x", FeatureKind::kNumeric, {}},
                      FeatureSpec{"y", FeatureKind::kNumeric, {}}});
  LinearModel model;
  model.weights = {1.5, -2.0};
  model.bias = 0.25;
  model.logistic = true;
  pipeline.SetLinearModel(model);
  flock::ModelEntry entry;
  entry.name = "toy";
  entry.pipeline = pipeline;
  auto graph = pipeline.Compile();
  EXPECT_TRUE(graph.ok());
  entry.graph = std::move(graph).value();
  flock::ModelRegistry::AnalyzeEntry(&entry);
  return entry;
}

namespace {

// ---------------------------------------------------------------------------
// 1. Differential: kernel vs interpreted vs graph, bitwise.

TEST(DenseKernelTest, BitwiseStableAcrossModelZoo) {
  uint64_t seed = 101;
  for (const char* kind : kZoo) {
    SCOPED_TRACE(kind);
    Pipeline pipeline = MakeZooPipeline(kind, seed);
    seed += 7;

    auto graph = pipeline.Compile();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    DenseKernel kernel(*graph);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    EXPECT_EQ(kernel.input_cols(), 5u);
    EXPECT_GT(kernel.num_steps(), 2u);
    RowScorer interpreted(pipeline);
    GraphRuntime runtime(&*graph);

    // 10% NaNs: imputation must happen identically in all three paths.
    Matrix raw = RandomRaw(512, 4, 3, seed, /*nan_fraction=*/0.1);
    std::vector<double> old_scores = interpreted.ScoreAll(raw);
    auto graph_scores = runtime.RunToScores(raw);
    ASSERT_TRUE(graph_scores.ok());
    DenseKernelScratch scratch;
    std::vector<double> kernel_scores;
    ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &kernel_scores).ok());
    ASSERT_EQ(kernel_scores.size(), raw.rows());

    for (size_t r = 0; r < raw.rows(); ++r) {
      EXPECT_PRED2(BitEq, kernel_scores[r], old_scores[r])
          << kind << " kernel vs interpreted, row " << r;
      EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r])
          << kind << " kernel vs graph, row " << r;
    }
  }
}

TEST(DenseKernelTest, BatchMatchesSingleRowAcrossBlockBoundary) {
  // 1000 rows > kBlockRows, so ScoreBatch crosses block boundaries and a
  // ragged tail; every score must equal the single-row entry point's.
  Pipeline pipeline = MakeZooPipeline("gbdt", 211);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  ASSERT_GT(1000u, DenseKernel::kBlockRows);

  Matrix raw = RandomRaw(1000, 4, 3, 223, 0.05);
  DenseKernelScratch scratch;
  std::vector<double> batch;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
  DenseKernelScratch row_scratch;
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, batch[r],
                 kernel.ScoreRow(raw.row(r), &row_scratch))
        << "row " << r;
  }
}

TEST(DenseKernelTest, ScratchReuseAcrossModelsIsClean) {
  // One thread_local scratch serves every model on a worker thread; a
  // wider model must not leave residue that perturbs a narrower one.
  Pipeline wide = MakeZooPipeline("gbdt", 307);
  Pipeline narrow = MakeZooPipeline("logistic", 311);
  auto wide_graph = wide.Compile();
  auto narrow_graph = narrow.Compile();
  ASSERT_TRUE(wide_graph.ok() && narrow_graph.ok());
  DenseKernel wide_kernel(*wide_graph);
  DenseKernel narrow_kernel(*narrow_graph);
  ASSERT_TRUE(wide_kernel.ok() && narrow_kernel.ok());

  Matrix raw = RandomRaw(64, 4, 3, 313);
  DenseKernelScratch fresh;
  std::vector<double> expected;
  ASSERT_TRUE(narrow_kernel.ScoreBatch(raw, &fresh, &expected).ok());

  DenseKernelScratch shared;
  std::vector<double> warmup;
  ASSERT_TRUE(wide_kernel.ScoreBatch(raw, &shared, &warmup).ok());
  std::vector<double> reused;
  ASSERT_TRUE(narrow_kernel.ScoreBatch(raw, &shared, &reused).ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, reused[r], expected[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// 1b. Threshold verdicts: kernel vs a reference early-exit loop.

/// The reference PREDICT_GT/GE/LT/LE path, as scoring ran before the
/// kernel decided thresholds: a trailing Sigmoid folds into a logit
/// threshold; a boosted ensemble takes its input features from
/// GraphRuntime::RunToNode and walks each row tree by tree through
/// Tree::Predict, stopping once the suffix min/max of the remaining
/// trees' leaves put the final sum on one side of the threshold; any
/// other plan scores fully and compares.
std::vector<bool> ReferenceVerdicts(const flock::ModelEntry& entry,
                                    const Matrix& raw, double threshold,
                                    ml::ThresholdOp op) {
  const size_t n = raw.rows();
  double t = threshold;
  if (entry.ends_with_sigmoid) {
    if (threshold <= 0.0) {
      return std::vector<bool>(
          n, op == ml::ThresholdOp::kGt || op == ml::ThresholdOp::kGe);
    }
    if (threshold >= 1.0) {
      return std::vector<bool>(
          n, op == ml::ThresholdOp::kLt || op == ml::ThresholdOp::kLe);
    }
    t = std::log(threshold / (1.0 - threshold));
  }
  GraphRuntime runtime(&entry.graph);
  std::vector<bool> out(n);
  const GraphNode* forest = nullptr;
  if (entry.tree_node_id >= 0) {
    const GraphNode& node =
        entry.graph.nodes()[static_cast<size_t>(entry.tree_node_id)];
    if (!node.tree_average && !node.trees.empty()) forest = &node;
  }
  if (forest != nullptr) {
    const auto& trees = forest->trees;
    std::vector<double> smin(trees.size() + 1, 0.0);
    std::vector<double> smax(trees.size() + 1, 0.0);
    for (size_t i = trees.size(); i-- > 0;) {
      double lo = 0.0, hi = 0.0;
      bool first = true;
      for (const ml::TreeNode& tn : trees[i].nodes) {
        if (!tn.is_leaf()) continue;
        lo = first ? tn.value : std::min(lo, tn.value);
        hi = first ? tn.value : std::max(hi, tn.value);
        first = false;
      }
      smin[i] = smin[i + 1] + lo;
      smax[i] = smax[i + 1] + hi;
    }
    auto features = runtime.RunToNode(raw, forest->inputs[0]);
    EXPECT_TRUE(features.ok());
    for (size_t r = 0; r < n; ++r) {
      const double* row = features->row(r);
      double acc = forest->tree_base;
      bool decided = false;
      for (size_t k = 0; k < trees.size() && !decided; ++k) {
        acc += trees[k].Predict(row);
        const double lo = acc + smin[k + 1];
        const double hi = acc + smax[k + 1];
        if (ml::EvalThreshold(op, lo, t) == ml::EvalThreshold(op, hi, t) &&
            lo <= hi) {
          out[r] = ml::EvalThreshold(op, lo, t);
          decided = true;
        }
      }
      if (!decided) out[r] = ml::EvalThreshold(op, acc, t);
    }
    return out;
  }
  std::vector<double> z(n);
  if (entry.ends_with_sigmoid) {
    const GraphNode& sig =
        entry.graph.nodes()[static_cast<size_t>(entry.graph.output_id())];
    auto logits = runtime.RunToNode(raw, sig.inputs[0]);
    EXPECT_TRUE(logits.ok());
    for (size_t r = 0; r < n; ++r) z[r] = logits->at(r, 0);
  } else {
    auto scores = runtime.RunToScores(raw);
    EXPECT_TRUE(scores.ok());
    z = *scores;
  }
  for (size_t r = 0; r < n; ++r) out[r] = ml::EvalThreshold(op, z[r], t);
  return out;
}

flock::ModelEntry EntryForGraph(ModelGraph graph) {
  flock::ModelEntry entry;
  entry.name = "hand";
  entry.graph = std::move(graph);
  flock::ModelRegistry::AnalyzeEntry(&entry);
  return entry;
}

flock::ModelEntry EntryForPipeline(const Pipeline& pipeline) {
  auto graph = pipeline.Compile();
  EXPECT_TRUE(graph.ok());
  flock::ModelEntry entry = EntryForGraph(std::move(graph).value());
  entry.pipeline = pipeline;
  return entry;
}

const ml::ThresholdOp kOps[] = {ml::ThresholdOp::kGt, ml::ThresholdOp::kGe,
                                ml::ThresholdOp::kLt, ml::ThresholdOp::kLe};

/// Checks flock::ScoreThresholdBatch (which routes through the entry's
/// kernel) against ReferenceVerdicts for every op and threshold.
void ExpectVerdictsMatchReference(const flock::ModelEntry& entry,
                                  const Matrix& raw,
                                  const std::vector<double>& thresholds) {
  ASSERT_NE(entry.kernel, nullptr);
  ASSERT_TRUE(entry.kernel->ok()) << entry.kernel->status().ToString();
  for (double t : thresholds) {
    for (ml::ThresholdOp op : kOps) {
      auto verdicts = flock::ScoreThresholdBatch(entry, raw, t, op);
      ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
      std::vector<bool> expected = ReferenceVerdicts(entry, raw, t, op);
      ASSERT_EQ(verdicts->size(), raw.rows());
      for (size_t r = 0; r < raw.rows(); ++r) {
        ASSERT_EQ((*verdicts)[r], expected[r])
            << "rows " << raw.rows() << " threshold " << t << " op "
            << static_cast<int>(op) << " row " << r;
      }
    }
  }
}

TEST(DenseKernelThresholdTest, VerdictsMatchReferenceAcrossModelZoo) {
  // GBDT (boosted + sigmoid: early exit on logit), forest (averaged: full
  // score), linear (regression: full score) and logistic (sigmoid fold
  // without trees); block-edge row counts; 10% NaNs.
  const std::vector<double> thresholds = {0.0, 1e-3, 0.5, 0.8, 0.999, 1.0};
  uint64_t seed = 503;
  for (const char* kind : kZoo) {
    SCOPED_TRACE(kind);
    flock::ModelEntry entry = EntryForPipeline(MakeZooPipeline(kind, seed));
    for (size_t rows : {size_t{1}, size_t{255}, size_t{256}, size_t{257},
                        size_t{1000}}) {
      Matrix raw = RandomRaw(rows, 4, 3, seed + rows, /*nan_fraction=*/0.1);
      ExpectVerdictsMatchReference(entry, raw, thresholds);
    }
    seed += 11;
  }
}

/// A tree whose leaves sit at every depth 1..depth: a spine of internal
/// nodes, each with one leaf child (on the right for a left spine) and
/// the spine continuing on the other side; the last spine node has two
/// leaves. Features cycle over `features`, thresholds over {-1,...,1}.
ml::Tree SpineTree(size_t depth, size_t features, bool left_spine,
                   double value_scale) {
  ml::Tree tree;
  static const double kThresholds[] = {-1.0, -0.5, 0.0, 0.5, 1.0};
  for (size_t d = 0; d < depth; ++d) {
    const int32_t self = static_cast<int32_t>(tree.nodes.size());
    ml::TreeNode inner;
    inner.feature = static_cast<int32_t>(d % features);
    inner.threshold = kThresholds[(d * 3 + (left_spine ? 0 : 1)) % 5];
    tree.nodes.push_back(inner);
    ml::TreeNode leaf;
    leaf.value = value_scale * (static_cast<double>(d) + 0.25);
    const int32_t leaf_id = self + 1;
    const int32_t next = self + 2;
    tree.nodes.push_back(leaf);
    tree.nodes[static_cast<size_t>(self)].left = left_spine ? next : leaf_id;
    tree.nodes[static_cast<size_t>(self)].right = left_spine ? leaf_id : next;
  }
  ml::TreeNode last;
  last.value = -value_scale * static_cast<double>(depth);
  tree.nodes.push_back(last);
  return tree;
}

/// input(3) -> TreeEnsemble(trees, boosted) -> Sigmoid.
ModelGraph HandForest(std::vector<ml::Tree> trees) {
  ModelGraph graph;
  int input = graph.SetInput(3);
  GraphNode forest;
  forest.op = OpType::kTreeEnsemble;
  forest.inputs = {input};
  forest.trees = std::move(trees);
  forest.tree_base = 0.125;
  int id = graph.AddNode(forest);
  GraphNode sigmoid;
  sigmoid.op = OpType::kSigmoid;
  sigmoid.inputs = {id};
  graph.SetOutput(graph.AddNode(sigmoid));
  EXPECT_TRUE(graph.Finalize().ok());
  return graph;
}

/// Inputs drawn from the trees' own thresholds (ties go right) plus NaN.
Matrix TieHeavyRaw(size_t rows, uint64_t seed) {
  static const double kValues[] = {-1.0, -0.75, -0.5, 0.0, 0.25,
                                   0.5,  1.0,   1.5,  std::nan("")};
  Random rng(seed);
  Matrix raw(rows, 3);
  for (double& v : raw.data()) v = kValues[rng.Uniform(9)];
  return raw;
}

/// Kernel scores vs GraphRuntime (bitwise), ScoreRow vs ScoreBatch, and
/// threshold verdicts vs the reference loop.
void ExpectHandForestAgrees(const ModelGraph& graph) {
  flock::ModelEntry entry = EntryForGraph(graph);
  ASSERT_TRUE(entry.kernel->ok()) << entry.kernel->status().ToString();
  Matrix raw = TieHeavyRaw(1000, 71);
  GraphRuntime runtime(&graph);
  auto graph_scores = runtime.RunToScores(raw);
  ASSERT_TRUE(graph_scores.ok());
  DenseKernelScratch scratch;
  std::vector<double> kernel_scores;
  ASSERT_TRUE(entry.kernel->ScoreBatch(raw, &scratch, &kernel_scores).ok());
  DenseKernelScratch row_scratch;
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r]) << "row " << r;
    EXPECT_PRED2(BitEq, kernel_scores[r],
                 entry.kernel->ScoreRow(raw.row(r), &row_scratch))
        << "row " << r;
  }
  ExpectVerdictsMatchReference(entry, raw, {0.2, 0.5, 0.6, 0.9});
}

TEST(DenseKernelThresholdTest, RaggedTreesPadIntoPerfectLayout) {
  // Leaves at depths 1..6 on both sides, a lone-leaf tree (depth 0) and
  // a shallow spine: the ensemble's D is 6 and every shallower leaf is
  // padded across its perfect subtree.
  ml::Tree lone;
  lone.nodes.resize(1);
  lone.nodes[0].value = 0.375;
  ModelGraph graph = HandForest({SpineTree(6, 3, true, 0.5),
                                 SpineTree(6, 3, false, -0.3), lone,
                                 SpineTree(3, 3, true, 0.8)});
  DenseKernel kernel(graph);
  ASSERT_TRUE(kernel.ok());
  EXPECT_EQ(kernel.tree_depth(), 6u);
  ExpectHandForestAgrees(graph);
}

TEST(DenseKernelThresholdTest, DeeperThanLayoutCapFallsBackToTreePredict) {
  const size_t deep = DenseKernel::kMaxPerfectDepth + 2;
  ModelGraph graph = HandForest({SpineTree(deep, 3, true, 0.2),
                                 SpineTree(4, 3, false, 0.6),
                                 SpineTree(deep, 3, false, -0.1)});
  DenseKernel kernel(graph);
  ASSERT_TRUE(kernel.ok());
  EXPECT_GT(kernel.tree_depth(), DenseKernel::kMaxPerfectDepth);
  ExpectHandForestAgrees(graph);
}

TEST(DenseKernelThresholdTest, KillMidThresholdBatchReturnsCancelled) {
  // Enough rows that the batch outlasts the kill by far; the per-block
  // poll must notice it and abandon the rest.
  flock::ModelEntry entry = EntryForPipeline(MakeZooPipeline("gbdt", 601));
  Matrix raw = RandomRaw(256 * 1024, 4, 3, 607);
  CancelToken token = CancelToken::Cancellable();
  std::atomic<bool> started{false};
  Status result;
  std::thread worker([&] {
    CancelScope scope(token);
    DenseKernelScratch scratch;
    std::vector<bool> verdicts;
    started.store(true, std::memory_order_release);
    result = entry.kernel->ThresholdBatch(raw, 0.0, ml::ThresholdOp::kGt,
                                          /*before_sigmoid=*/true, &scratch,
                                          &verdicts);
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  token.Cancel();
  worker.join();
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.ToString();
  EXPECT_NE(result.message().find("dense_kernel.block"), std::string::npos)
      << result.message();
}

// ---------------------------------------------------------------------------
// 1c. Columnar scoring: PREDICT and PREDICT_GT/GE/LT/LE bind the morsel's
// columns in place (through its selection vector, literals resolved once)
// and the kernel gathers each block straight from them. Every result must
// equal AssembleFeatures + GraphRuntime on the materialized rows, bitwise.

using storage::DataType;
using storage::RecordBatch;
using storage::Value;

/// Rows for the zoo pipelines' inputs as SQL columns of mixed types:
/// f0 DOUBLE (NULLs and NaNs), f1 INT, f2 BOOL, f3 DOUBLE, seg VARCHAR
/// (the vocabulary a/b/c, an unknown category, and NULLs).
RecordBatch ZooColumns(size_t rows, uint64_t seed) {
  RecordBatch batch(storage::Schema({{"f0", DataType::kDouble, true},
                                     {"f1", DataType::kInt64, true},
                                     {"f2", DataType::kBool, true},
                                     {"f3", DataType::kDouble, true},
                                     {"seg", DataType::kString, true}}));
  static const char* const kSegs[] = {"a", "b", "c", "zz"};
  Random rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double u = rng.NextDouble();
    Value f0 = u < 0.08   ? Value::Null(DataType::kDouble)
               : u < 0.12 ? Value::Double(std::nan(""))
                          : Value::Double(rng.NextGaussian() * 2.0 + 1.0);
    Value f1 = rng.NextDouble() < 0.05
                   ? Value::Null(DataType::kInt64)
                   : Value::Int(static_cast<int64_t>(rng.Uniform(7)) - 3);
    Value f2 = Value::Bool(rng.NextDouble() < 0.5);
    Value f3 = Value::Double(rng.NextGaussian());
    Value seg = rng.NextDouble() < 0.1
                    ? Value::Null(DataType::kString)
                    : Value::String(kSegs[rng.Uniform(4)]);
    EXPECT_TRUE(batch.AppendRow({f0, f1, f2, f3, seg}).ok());
  }
  return batch;
}

sql::ExprPtr FeatureRef(int index) {
  sql::ExprPtr e = sql::Expr::MakeColumnRef("", "c" + std::to_string(index));
  e->column_index = index;
  return e;
}

/// fn(model[, threshold], f0, f1, f2, f3, seg) over ZooColumns' columns.
sql::ExprPtr ScoringCall(const std::string& fn, const std::string& model,
                         const double* threshold = nullptr) {
  std::vector<sql::ExprPtr> args;
  args.push_back(sql::Expr::MakeLiteral(Value::String(model)));
  if (threshold != nullptr) {
    args.push_back(sql::Expr::MakeLiteral(Value::Double(*threshold)));
  }
  for (int c = 0; c < 5; ++c) args.push_back(FeatureRef(c));
  return sql::Expr::MakeFunction(fn, std::move(args));
}

/// Routes single-row PREDICTs through flock::ScoreBatch, counting calls.
class CountingCoalescer : public flock::ScoreCoalescer {
 public:
  StatusOr<double> ScoreOne(const flock::ModelEntry& entry, const double* row,
                            size_t width) override {
    ++calls;
    Matrix m(1, width);
    std::copy(row, row + width, m.row(0));
    FLOCK_ASSIGN_OR_RETURN(std::vector<double> scores,
                           flock::ScoreBatch(entry, m));
    return scores[0];
  }
  std::atomic<int> calls{0};
};

/// A registry holding the model zoo plus `concat#hand`, a Concat graph
/// the kernel does not compile (its calls fall back to GraphRuntime),
/// with the PREDICT family registered over it.
class ColumnarScoring {
 public:
  ColumnarScoring() {
    uint64_t seed = 701;
    for (const char* kind : kZoo) {
      EXPECT_TRUE(models.Register(kind, MakeZooPipeline(kind, seed)).ok());
      seed += 13;
    }
    EXPECT_TRUE(
        models.RegisterSpecialization("concat#hand", ConcatEntry()).ok());
    flock::RegisterPredictFunctions(&functions, &models, context);
  }

  const flock::ModelEntry& Entry(const std::string& name) const {
    auto entry = name.find('#') == std::string::npos
                     ? models.Get(name)
                     : models.GetSpecialization(name);
    EXPECT_TRUE(entry.ok());
    return **entry;
  }

  StatusOr<storage::ColumnVectorPtr> Eval(const sql::Expr& call,
                                          const RecordBatch& input) const {
    return sql::EvaluateExpr(call, input, &functions);
  }

  flock::ModelRegistry models;
  sql::FunctionRegistry functions;
  std::shared_ptr<flock::ScoringContext> context =
      std::make_shared<flock::ScoringContext>();

 private:
  static flock::ModelEntry ConcatEntry() {
    ModelGraph graph;
    int input = graph.SetInput(5);
    GraphNode scale;
    scale.op = OpType::kScaler;
    scale.inputs = {input};
    scale.offset = std::vector<double>(5, 0.5);
    scale.scale = std::vector<double>(5, 2.0);
    int scaled = graph.AddNode(scale);
    GraphNode concat;
    concat.op = OpType::kConcat;
    concat.inputs = {input, scaled};
    int both = graph.AddNode(concat);
    GraphNode gemm;
    gemm.op = OpType::kGemm;
    gemm.inputs = {both};
    gemm.gemm_weights = Matrix(1, 10, 0.125);
    gemm.gemm_bias = {-0.25};
    int logit = graph.AddNode(gemm);
    GraphNode sigmoid;
    sigmoid.op = OpType::kSigmoid;
    sigmoid.inputs = {logit};
    graph.SetOutput(graph.AddNode(sigmoid));
    EXPECT_TRUE(graph.Finalize().ok());
    flock::ModelEntry entry = EntryForGraph(std::move(graph));
    entry.name = "concat#hand";
    std::vector<FeatureSpec> specs = NumericSpecs(4);
    specs.push_back(
        FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}});
    entry.pipeline.SetInputs(std::move(specs));
    return entry;
  }
};

/// The reference: materialize the view's rows and encode them value by
/// value (NULL -> NaN, a string -> its first vocabulary index or NaN, a
/// number as a double), independently of the kernel's column gather; then
/// GraphRuntime (scores) / ReferenceVerdicts. AssembleFeatures on the
/// dense columns must produce the same matrix, bitwise.
Matrix MaterializedFeatures(const flock::ModelEntry& entry,
                            const RecordBatch& view) {
  RecordBatch dense = view.Materialize();
  Matrix raw(dense.num_rows(), dense.num_columns());
  for (size_t r = 0; r < dense.num_rows(); ++r) {
    for (size_t c = 0; c < dense.num_columns(); ++c) {
      const Value v = dense.column(c)->GetValue(r);
      const std::vector<std::string>& vocab = entry.pipeline.inputs()[c].vocab;
      double code = std::nan("");
      if (!v.is_null() && v.type() != DataType::kString) {
        code = v.AsDouble();
      } else if (!v.is_null()) {
        auto it = std::find(vocab.begin(), vocab.end(), v.string_value());
        if (it != vocab.end()) code = static_cast<double>(it - vocab.begin());
      }
      raw.at(r, c) = code;
    }
  }
  std::vector<storage::ColumnVectorPtr> cols;
  for (size_t c = 0; c < dense.num_columns(); ++c) {
    cols.push_back(dense.column(c));
  }
  auto assembled = flock::AssembleFeatures(entry, cols, dense.num_rows());
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  for (size_t i = 0; assembled.ok() && i < raw.data().size(); ++i) {
    EXPECT_PRED2(BitEq, assembled->data()[i], raw.data()[i])
        << "AssembleFeatures element " << i;
  }
  return raw;
}

void ExpectColumnarMatchesMaterialized(const ColumnarScoring& scoring,
                                       const std::string& model,
                                       const RecordBatch& view) {
  const flock::ModelEntry& entry = scoring.Entry(model);
  const size_t n = view.num_rows();
  Matrix raw = MaterializedFeatures(entry, view);
  std::vector<double> expected;
  if (n > 0) {
    GraphRuntime runtime(&entry.graph);
    auto scores = runtime.RunToScores(raw);
    ASSERT_TRUE(scores.ok());
    expected = *scores;
  }
  auto got = scoring.Eval(*ScoringCall("PREDICT", model), view);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ((*got)->size(), n);
  for (size_t r = 0; r < n; ++r) {
    ASSERT_FALSE((*got)->IsNull(r));
    ASSERT_PRED2(BitEq, (*got)->double_at(r), expected[r]) << "row " << r;
  }
  const char* const fns[] = {"PREDICT_GT", "PREDICT_GE", "PREDICT_LT",
                             "PREDICT_LE"};
  for (double t : {0.3, 0.5, 0.8}) {
    for (size_t k = 0; k < 4; ++k) {
      auto verdicts = scoring.Eval(*ScoringCall(fns[k], model, &t), view);
      ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
      ASSERT_EQ((*verdicts)->size(), n);
      std::vector<bool> want;
      if (n > 0) want = ReferenceVerdicts(entry, raw, t, kOps[k]);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ((*verdicts)->bool_at(r), want[r])
            << fns[k] << " " << t << " row " << r;
      }
    }
  }
}

TEST(ColumnarScoringTest, MatchesAssembledRowsAcrossModelsAndSelections) {
  ColumnarScoring scoring;
  uint64_t seed = 809;
  for (size_t rows : {size_t{1}, size_t{255}, size_t{256}, size_t{257},
                      size_t{2048}}) {
    const RecordBatch dense = ZooColumns(rows, seed++);
    std::vector<uint32_t> sparse, full;
    for (uint32_t r = 0; r < rows; ++r) {
      full.push_back(r);
      if (r % 3 == 1 || r % 7 == 0) sparse.push_back(r);
    }
    const std::vector<std::pair<const char*, RecordBatch>> views = {
        {"none", dense},
        {"sparse", dense.SelectView(sparse)},
        {"empty", dense.SelectView({})},
        {"full", dense.SelectView(full)}};
    for (const auto& [selection, view] : views) {
      for (const char* model :
           {"linear", "logistic", "gbdt", "forest", "concat#hand"}) {
        SCOPED_TRACE(std::string(model) + " rows " + std::to_string(rows) +
                     " selection " + selection);
        ExpectColumnarMatchesMaterialized(scoring, model, view);
      }
    }
  }
}

TEST(ColumnarScoringTest, LiteralFeaturesResolveOnceAsConstants) {
  // PREDICT(gbdt, 1.5, f1, NULL, f3, 'b'): literals bind as constant
  // columns; the reference broadcasts them into real columns.
  ColumnarScoring scoring;
  const flock::ModelEntry& entry = scoring.Entry("gbdt");
  const RecordBatch dense = ZooColumns(300, 911);
  std::vector<uint32_t> sel = {0, 5, 17, 299};
  const RecordBatch view = dense.SelectView(sel);

  std::vector<sql::ExprPtr> args;
  args.push_back(sql::Expr::MakeLiteral(Value::String("gbdt")));
  args.push_back(sql::Expr::MakeLiteral(Value::Double(1.5)));
  args.push_back(FeatureRef(1));
  args.push_back(sql::Expr::MakeLiteral(Value::Null()));
  args.push_back(FeatureRef(3));
  args.push_back(sql::Expr::MakeLiteral(Value::String("b")));
  auto got = scoring.Eval(*sql::Expr::MakeFunction("PREDICT", std::move(args)),
                          view);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  RecordBatch gathered = view.Materialize();
  auto broadcast = [&](const Value& v, DataType type) {
    auto col = std::make_shared<storage::ColumnVector>(type);
    for (size_t r = 0; r < sel.size(); ++r) {
      EXPECT_TRUE(col->AppendValue(v).ok());
    }
    return col;
  };
  auto raw = flock::AssembleFeatures(
      entry,
      {broadcast(Value::Double(1.5), DataType::kDouble), gathered.column(1),
       broadcast(Value::Null(DataType::kDouble), DataType::kDouble),
       gathered.column(3), broadcast(Value::String("b"), DataType::kString)},
      sel.size());
  ASSERT_TRUE(raw.ok());
  GraphRuntime runtime(&entry.graph);
  auto expected = runtime.RunToScores(*raw);
  ASSERT_TRUE(expected.ok());
  for (size_t r = 0; r < sel.size(); ++r) {
    EXPECT_PRED2(BitEq, (*got)->double_at(r), (*expected)[r]) << "row " << r;
  }
}

TEST(ColumnarScoringTest, StringIntoNumericAndArityAreInvalidArgument) {
  ColumnarScoring scoring;
  const RecordBatch dense = ZooColumns(40, 919);
  const RecordBatch view = dense.SelectView({1, 2, 3});
  // seg (VARCHAR) bound to the numeric f0.
  std::vector<sql::ExprPtr> args;
  args.push_back(sql::Expr::MakeLiteral(Value::String("gbdt")));
  args.push_back(FeatureRef(4));
  for (int c = 1; c < 5; ++c) args.push_back(FeatureRef(c));
  auto bad = scoring.Eval(*sql::Expr::MakeFunction("PREDICT", std::move(args)),
                          view);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("received a string"),
            std::string::npos)
      << bad.status().ToString();
  // A string literal bound to a numeric feature, in a threshold call.
  args.clear();
  args.push_back(sql::Expr::MakeLiteral(Value::String("logistic")));
  args.push_back(sql::Expr::MakeLiteral(Value::Double(0.5)));
  args.push_back(sql::Expr::MakeLiteral(Value::String("a")));
  for (int c = 1; c < 5; ++c) args.push_back(FeatureRef(c));
  bad = scoring.Eval(*sql::Expr::MakeFunction("PREDICT_GT", std::move(args)),
                     view);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // Too few features.
  args.clear();
  args.push_back(sql::Expr::MakeLiteral(Value::String("forest")));
  args.push_back(FeatureRef(0));
  args.push_back(FeatureRef(1));
  bad = scoring.Eval(*sql::Expr::MakeFunction("PREDICT", std::move(args)),
                     view);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

/// Kills the request from inside the PREDICT call, after binding and
/// before the kernel's first block, so the kill lands at a known point.
class KillingObserver : public flock::FeatureObserver {
 public:
  explicit KillingObserver(CancelToken token) : token_(std::move(token)) {}
  void ObserveFeatures(const flock::ModelEntry&, const Matrix&,
                       size_t) override {
    token_.Cancel();
  }

 private:
  CancelToken token_;
};

TEST(ColumnarScoringTest, KillDuringScoringReturnsCancelled) {
  ColumnarScoring scoring;
  const RecordBatch dense = ZooColumns(2048, 929);
  std::vector<uint32_t> sel;
  for (uint32_t r = 0; r < dense.num_rows(); r += 2) sel.push_back(r);
  const RecordBatch view = dense.SelectView(sel);
  const double t = 0.5;
  for (const char* fn : {"PREDICT", "PREDICT_GT"}) {
    CancelToken token = CancelToken::Cancellable();
    KillingObserver observer(token);
    scoring.context->observer.store(&observer);
    Status result;
    {
      CancelScope scope(token);
      const bool threshold = std::string(fn) != "PREDICT";
      result = scoring.Eval(*ScoringCall(fn, "gbdt", threshold ? &t : nullptr),
                            view)
                   .status();
    }
    scoring.context->observer.store(nullptr);
    EXPECT_EQ(result.code(), StatusCode::kCancelled) << fn << result.ToString();
    EXPECT_NE(result.message().find("dense_kernel.block"), std::string::npos)
        << result.message();
  }
}

TEST(ColumnarScoringTest, SingleRowGoesThroughTheCoalescer) {
  ColumnarScoring scoring;
  CountingCoalescer coalescer;
  scoring.context->coalescer.store(&coalescer);
  const RecordBatch dense = ZooColumns(64, 937);
  for (uint32_t row : {0u, 9u, 63u}) {
    const RecordBatch view = dense.SelectView({row});
    const int before = coalescer.calls.load();
    ExpectColumnarMatchesMaterialized(scoring, "gbdt", view);
    // PREDICT went through the coalescer; the threshold calls did not.
    EXPECT_EQ(coalescer.calls.load(), before + 1) << "row " << row;
  }
  scoring.context->coalescer.store(nullptr);
}

// ---------------------------------------------------------------------------
// 2a. Zero-variance scaler columns (the divide-by-zero bug).

TEST(ScalerGuardTest, ZeroVarianceColumnIsPassThroughEverywhere) {
  // A column whose training std is exactly 0 used to compile to
  // scale = 1/0 = inf, poisoning every score downstream. The guard clamps
  // |std| <= kMinScaleStd to 1.0, so the column passes through centered,
  // and all three scorers agree bitwise.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(3));
  pipeline.set_task(ml::ModelTask::kRegression);
  pipeline.SetImputer({0.0, 0.0, 0.0});
  pipeline.SetScaler({1.0, 5.0, -2.0}, {2.0, 0.0, 1e-300});
  LinearModel model;
  model.weights = {0.5, 1.0, -0.25};
  model.bias = 0.125;
  model.logistic = false;
  pipeline.SetLinearModel(model);

  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  RowScorer interpreted(pipeline);
  GraphRuntime runtime(&*graph);

  Matrix raw(3, 3);
  raw.data() = {2.0, 5.0, -2.0, -1.0, 7.5, 0.0, 0.0, 5.0, -2.0};
  auto graph_scores = runtime.RunToScores(raw);
  ASSERT_TRUE(graph_scores.ok());
  DenseKernelScratch scratch;
  std::vector<double> kernel_scores;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &kernel_scores).ok());
  std::vector<double> old_scores = interpreted.ScoreAll(raw);

  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_TRUE(std::isfinite(kernel_scores[r])) << "row " << r;
    EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r]) << r;
    EXPECT_PRED2(BitEq, kernel_scores[r], old_scores[r]) << r;
  }
  // Pass-through of the offset: the guarded columns contribute
  // (v - mean) * 1.0. Row 0 sits exactly on the means, so only the first
  // (healthy) column moves the score.
  EXPECT_DOUBLE_EQ(kernel_scores[0], 0.5 * 0.5 + 0.125);
  // And a guarded column still influences the score (centered, not
  // zeroed): row 1 moves it to 7.5 and the tiny-std column to 0.
  EXPECT_DOUBLE_EQ(kernel_scores[1],
                   0.5 * -1.0 + 1.0 * 2.5 - 0.25 * 2.0 + 0.125);
}

TEST(ScalerGuardTest, PipelineTransformAndScoreRowGuarded) {
  // The same guard covers the eager Pipeline paths (Transform/ScoreRow),
  // which divide by std rather than multiplying by the compiled scale.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(2));
  pipeline.set_task(ml::ModelTask::kRegression);
  pipeline.SetScaler({0.0, 3.0}, {1.0, 0.0});
  LinearModel model;
  model.weights = {1.0, 1.0};
  model.bias = 0.0;
  model.logistic = false;
  pipeline.SetLinearModel(model);

  Matrix raw(1, 2);
  raw.data() = {2.0, 4.5};
  Matrix transformed = pipeline.Transform(raw);
  EXPECT_DOUBLE_EQ(transformed.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(transformed.at(0, 1), 1.5);  // (4.5-3)/guard(0) = 1.5
  EXPECT_DOUBLE_EQ(pipeline.ScoreRow(raw.row(0)), 3.5);
}

// ---------------------------------------------------------------------------
// 2b. Missing features: NaN-imputed results, never std::out_of_range.

TEST(RowScorerTest, ShortRowScoresAsNaNImputed) {
  // RowScorer::Score used to call row.at(name) and throw out_of_range
  // straight through the serving stack when a feature was absent. Now a
  // missing raw entry behaves exactly like an explicit NaN: the imputer
  // fills it.
  Pipeline pipeline = MakeZooPipeline("gbdt", 401);
  RowScorer scorer(pipeline);

  std::vector<double> full = {1.0, -0.5, 2.0, 0.25, 1.0};
  std::vector<double> with_nan = full;
  with_nan[3] = std::nan("");
  std::vector<double> truncated = {1.0, -0.5, 2.0};  // f3 + seg missing

  double full_score = 0.0, nan_score = 0.0, short_score = 0.0;
  EXPECT_NO_THROW(full_score = scorer.Score(full));
  EXPECT_NO_THROW(nan_score = scorer.Score(with_nan));
  EXPECT_NO_THROW(short_score = scorer.Score(truncated));
  EXPECT_TRUE(std::isfinite(full_score));
  EXPECT_TRUE(std::isfinite(nan_score));
  EXPECT_TRUE(std::isfinite(short_score));

  // A short row is the same as padding with NaN.
  std::vector<double> padded = {1.0, -0.5, 2.0, std::nan(""),
                                std::nan("")};
  EXPECT_PRED2(BitEq, short_score, scorer.Score(padded));
}

TEST(RowScorerTest, MissingFeatureWithoutImputerYieldsNaNNotThrow) {
  // No imputer in the pipeline: the NaN must propagate to the score (a
  // deterministic "don't know"), not explode as an exception.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(2));
  LinearModel model;
  model.weights = {1.0, 2.0};
  model.bias = 0.0;
  pipeline.SetLinearModel(model);
  RowScorer scorer(pipeline);

  double score = 0.0;
  EXPECT_NO_THROW(score = scorer.Score({3.0}));
  EXPECT_TRUE(std::isnan(score));
}

TEST(RowScorerTest, NoModelFallbackIsDeterministic) {
  // A featurizer-only pipeline has no "score" output. With one input the
  // passthrough value is unambiguous; with several, the old code returned
  // whatever map entry sorted first — now it is a deterministic NaN.
  Pipeline single;
  single.SetInputs(NumericSpecs(1));
  RowScorer single_scorer(single);
  EXPECT_DOUBLE_EQ(single_scorer.Score({4.25}), 4.25);

  Pipeline multi;
  multi.SetInputs(NumericSpecs(3));
  RowScorer multi_scorer(multi);
  double score = 0.0;
  EXPECT_NO_THROW(score = multi_scorer.Score({1.0, 2.0, 3.0}));
  EXPECT_TRUE(std::isnan(score));
}

// ---------------------------------------------------------------------------
// 2c. Non-chain graphs fall back to GraphRuntime.

TEST(DenseKernelTest, RejectsNonChainGraphs) {
  // A hand-wired diamond (concat reads node 0 and node 1) is valid for
  // the runtime but outside the kernel's straight-line contract.
  ModelGraph graph;
  int input = graph.SetInput(2);
  GraphNode scale;
  scale.op = OpType::kScaler;
  scale.inputs = {input};
  scale.offset = {0.0, 0.0};
  scale.scale = {1.0, 1.0};
  int scaled = graph.AddNode(scale);
  GraphNode concat;
  concat.op = OpType::kConcat;
  concat.inputs = {input, scaled};
  int both = graph.AddNode(concat);
  GraphNode gemm;
  gemm.op = OpType::kGemm;
  gemm.inputs = {both};
  gemm.gemm_weights = Matrix(1, 4, 0.5);
  gemm.gemm_bias = {0.0};
  graph.SetOutput(graph.AddNode(gemm));
  ASSERT_TRUE(graph.Finalize().ok());

  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
  EXPECT_FALSE(kernel.status().ok());
}

TEST(DenseKernelTest, EmptyGraphIsRejectedNotExecuted) {
  ModelGraph graph;
  graph.SetInput(3);
  graph.SetOutput(0);
  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
}

// ---------------------------------------------------------------------------
// flock::ScoreBatch boundary + kernel routing

TEST(ScoringBoundaryTest, MismatchedArityIsRejectedNotTruncated) {
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_EQ(entry.graph.input_cols(), 2u);

  for (size_t cols : {size_t{1}, size_t{3}, size_t{7}}) {
    Matrix raw(4, cols, 0.5);
    auto scores = flock::ScoreBatch(entry, raw);
    EXPECT_FALSE(scores.ok()) << cols << " cols";
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
    auto verdicts = flock::ScoreThresholdBatch(entry, raw, 0.5,
                                               flock::ThresholdOp::kGt);
    EXPECT_FALSE(verdicts.ok()) << cols << " cols";
    EXPECT_EQ(verdicts.status().code(), StatusCode::kInvalidArgument);
  }

  Matrix ok_raw(4, 2, 0.5);
  EXPECT_TRUE(flock::ScoreBatch(entry, ok_raw).ok());
}

TEST(ScoringBoundaryTest, AnalyzeEntryCompilesKernel) {
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_NE(entry.kernel, nullptr);
  EXPECT_TRUE(entry.kernel->ok()) << entry.kernel->status().ToString();
  EXPECT_EQ(entry.kernel->input_cols(), 2u);
}

TEST(ScoringBoundaryTest, KernelRoutingMatchesRuntimeFallback) {
  // The same entry scored with and without its kernel must agree bitwise
  // — this is the guarantee that lets every caller (serving, lifecycle
  // shadow/canary, the optimizer's specializations) ignore which path
  // actually ran.
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_NE(entry.kernel, nullptr);

  Random rng(17);
  Matrix raw(64, 2);
  for (size_t r = 0; r < raw.rows(); ++r) {
    raw.at(r, 0) = rng.NextGaussian();
    raw.at(r, 1) = rng.NextGaussian();
  }
  auto with_kernel = flock::ScoreBatch(entry, raw);
  ASSERT_TRUE(with_kernel.ok());

  flock::ModelEntry no_kernel = entry;
  no_kernel.kernel = nullptr;
  auto fallback = flock::ScoreBatch(no_kernel, raw);
  ASSERT_TRUE(fallback.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, (*with_kernel)[r], (*fallback)[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// 3. serve::MicroBatcher — coalescing correctness under concurrency.

std::vector<double> ReferenceScores(const flock::ModelEntry& entry,
                                    const Matrix& rows) {
  auto scores = flock::ScoreBatch(entry, rows);
  EXPECT_TRUE(scores.ok());
  return std::move(scores).value();
}

TEST(MicroBatcherTest, CoalescedScoresAreBitwiseIdentical) {
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 8;
  options.max_wait_ms = 50.0;
  options.bypass_solo = false;  // force the window even when lonely
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 8;
  Random rng(23);
  Matrix rows(kThreads, 2);
  for (size_t r = 0; r < kThreads; ++r) {
    rows.at(r, 0) = rng.NextGaussian();
    rows.at(r, 1) = rng.NextGaussian();
  }
  std::vector<double> expected = ReferenceScores(entry, rows);

  std::vector<double> got(kThreads, 0.0);
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto score = batcher.ScoreOne(entry, rows.row(t), 2);
      statuses[t] = score.status();
      if (score.ok()) got[t] = *score;
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_PRED2(BitEq, got[t], expected[t]) << "request " << t;
  }
  EXPECT_EQ(batcher.rows_scored(), kThreads);
  // With all 8 released together and a 50 ms window, at least one batch
  // actually coalesced (>= 2 rows in one kernel invocation).
  EXPECT_GT(batcher.rows_coalesced(), 0u);
  EXPECT_LT(batcher.batches_executed() + batcher.bypassed(), kThreads);
  EXPECT_GE(batcher.batch_sizes().count(), 1u);
}

TEST(MicroBatcherTest, DrainFlushesPartialBatchPromptly) {
  // One lone request with a 10 s window and no solo bypass: it becomes a
  // leader and waits. Drain() must flush it immediately — this is what
  // guarantees server Shutdown never waits out a coalescing window.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 32;
  options.max_wait_ms = 10'000.0;
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);

  Matrix row(1, 2);
  row.data() = {0.7, -0.3};
  std::vector<double> expected = ReferenceScores(entry, row);

  Stopwatch timer;
  auto pending = std::async(std::launch::async, [&] {
    return batcher.ScoreOne(entry, row.row(0), 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  batcher.Drain();
  auto score = pending.get();
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_PRED2(BitEq, *score, expected[0]);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0) << "drain did not flush";
}

TEST(MicroBatcherTest, SoloRequestBypassesWindow) {
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_wait_ms = 10'000.0;  // would hang if the window applied
  options.bypass_solo = true;
  serve::MicroBatcher batcher(options);

  Matrix row(1, 2);
  row.data() = {0.1, 0.2};
  std::vector<double> expected = ReferenceScores(entry, row);
  Stopwatch timer;
  auto score = batcher.ScoreOne(entry, row.row(0), 2);
  ASSERT_TRUE(score.ok());
  EXPECT_PRED2(BitEq, *score, expected[0]);
  EXPECT_LT(timer.ElapsedMillis(), 1000.0);
  EXPECT_EQ(batcher.bypassed(), 1u);
  EXPECT_EQ(batcher.rows_coalesced(), 0u);
}

TEST(MicroBatcherTest, ArityErrorPropagatesToEveryWaiter) {
  // A batch whose execution fails (wrong width for the model) must hand
  // the error to leader and followers alike — nobody hangs, nobody gets
  // a stale score.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 4;
  options.max_wait_ms = 50.0;
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 4;
  std::vector<double> bad_row = {1.0, 2.0, 3.0};  // model wants width 2
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      statuses[t] = batcher.ScoreOne(entry, bad_row.data(), 3).status();
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(statuses[t].ok()) << "request " << t;
    EXPECT_EQ(statuses[t].code(), StatusCode::kInvalidArgument);
  }
}

TEST(MicroBatcherTest, ConcurrentStressStaysCorrect) {
  // The TSan workhorse: many threads, many rounds, tiny window, mixed
  // batch shapes. Every result must still be bitwise-correct for its own
  // row — coalescing must never cross-wire indices.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 6;
  options.max_wait_ms = 0.2;
  options.bypass_solo = true;
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 8;
  const size_t kRounds = 200;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      DenseKernelScratch scratch;
      for (size_t i = 0; i < kRounds; ++i) {
        double row[2] = {rng.NextGaussian(), rng.NextGaussian()};
        double expected = entry.kernel->ScoreRow(row, &scratch);
        auto score = batcher.ScoreOne(entry, row, 2);
        if (!score.ok() || !BitEq(*score, expected)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(batcher.rows_scored(), kThreads * kRounds);
}

}  // namespace
}  // namespace flock::kernel_test
