// Property-based ML tests (TEST_P sweeps over trainer configurations and
// seeds): every executable form of a pipeline must agree, serialization
// must round-trip bit-exactly, and the optimizer's model transformations
// (input compaction, statistics-based tree compression, threshold
// short-circuiting) must preserve semantics on admissible inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/random.h"
#include "flock/model_registry.h"
#include "flock/scoring.h"
#include "ml/pipeline.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "ml/tree.h"

namespace flock::ml {
namespace {

// Param: (seed, num_trees, depth, num_noise_features, use_categorical)
using Config = std::tuple<uint64_t, size_t, size_t, size_t, bool>;

class PipelineEquivalenceTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    auto [seed, trees, depth, noise, categorical] = GetParam();
    seed_ = seed;
    size_t numeric = 3 + noise;
    width_ = numeric + (categorical ? 1 : 0);

    Random rng(seed);
    size_t n = 1200;
    Matrix raw(n, width_);
    std::vector<double> y(n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < numeric; ++c) {
        raw.at(r, c) = rng.NextGaussian() * 2.0;
      }
      if (categorical) {
        raw.at(r, numeric) = static_cast<double>(rng.Uniform(4));
      }
      double z = raw.at(r, 0) - 1.3 * raw.at(r, 1) +
                 0.7 * raw.at(r, 2) +
                 (categorical && raw.at(r, numeric) == 1.0 ? 0.8 : 0.0);
      y[r] = z > 0 ? 1.0 : 0.0;
    }

    std::vector<FeatureSpec> specs;
    for (size_t c = 0; c < numeric; ++c) {
      specs.push_back(FeatureSpec{"f" + std::to_string(c),
                                  FeatureKind::kNumeric,
                                  {}});
    }
    if (categorical) {
      specs.push_back(FeatureSpec{"cat",
                                  FeatureKind::kCategorical,
                                  {"a", "b", "c", "d"}});
    }
    pipeline_.SetInputs(std::move(specs));
    pipeline_.FitFeaturizers(raw, true, true);
    Dataset data;
    data.x = pipeline_.Transform(raw);
    data.y = std::move(y);
    GbtOptions gbt;
    gbt.num_trees = trees;
    gbt.max_depth = depth;
    gbt.seed = seed;
    pipeline_.SetTreeModel(TrainGradientBoosting(data, gbt));
  }

  Matrix RandomRaw(size_t n, uint64_t salt) const {
    Random rng(seed_ ^ salt);
    Matrix raw(n, width_);
    bool categorical = std::get<4>(GetParam());
    size_t numeric = categorical ? width_ - 1 : width_;
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < numeric; ++c) {
        raw.at(r, c) = rng.NextGaussian() * 2.5;
      }
      if (categorical) {
        raw.at(r, numeric) = static_cast<double>(rng.Uniform(4));
      }
    }
    return raw;
  }

  uint64_t seed_ = 0;
  size_t width_ = 0;
  Pipeline pipeline_;
};

TEST_P(PipelineEquivalenceTest, AllExecutablFormsAgree) {
  auto graph = pipeline_.Compile();
  ASSERT_TRUE(graph.ok());
  GraphRuntime runtime(&*graph);
  RowScorer scorer(pipeline_);
  Matrix raw = RandomRaw(200, 0x51);
  auto vectorized = runtime.RunToScores(raw);
  ASSERT_TRUE(vectorized.ok());
  std::vector<double> interpreted = scorer.ScoreAll(raw);
  for (size_t r = 0; r < raw.rows(); ++r) {
    double reference = pipeline_.ScoreRow(raw.row(r));
    EXPECT_NEAR((*vectorized)[r], reference, 1e-9);
    EXPECT_NEAR(interpreted[r], reference, 1e-9);
  }
}

TEST_P(PipelineEquivalenceTest, SerializationRoundTrip) {
  std::string text = pipeline_.Serialize();
  auto restored = Pipeline::Deserialize(text);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Serialize(), text);
  Matrix raw = RandomRaw(64, 0x52);
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_DOUBLE_EQ(pipeline_.ScoreRow(raw.row(r)),
                     restored->ScoreRow(raw.row(r)));
  }
}

TEST_P(PipelineEquivalenceTest, CompactUnusedInputsPreservesScores) {
  auto graph = pipeline_.Compile();
  ASSERT_TRUE(graph.ok());
  std::vector<bool> used = graph->UsedInputColumns();
  ModelGraph compact = *graph;
  ASSERT_TRUE(compact.CompactInputs(used).ok());

  Matrix raw = RandomRaw(100, 0x53);
  std::vector<size_t> kept;
  for (size_t c = 0; c < used.size(); ++c) {
    if (used[c]) kept.push_back(c);
  }
  Matrix narrow(raw.rows(), kept.size());
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < kept.size(); ++c) {
      narrow.at(r, c) = raw.at(r, kept[c]);
    }
  }
  GraphRuntime full(&*graph);
  GraphRuntime pruned(&compact);
  auto a = full.RunToScores(raw);
  auto b = pruned.RunToScores(narrow);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_NEAR((*a)[r], (*b)[r], 1e-9);
  }
}

TEST_P(PipelineEquivalenceTest, RangeCompressionSoundInsideBox) {
  auto graph = pipeline_.Compile();
  ASSERT_TRUE(graph.ok());
  // Random admissible box per seed.
  Random rng(seed_ ^ 0x54);
  bool categorical = std::get<4>(GetParam());
  size_t numeric = categorical ? width_ - 1 : width_;
  std::vector<ColumnRange> box(width_);
  for (size_t c = 0; c < numeric; ++c) {
    double lo = rng.UniformDouble(-2.0, 0.0);
    double hi = lo + rng.UniformDouble(0.5, 2.5);
    box[c] = ColumnRange{lo, hi, true};
  }
  if (categorical) box[numeric] = ColumnRange{0, 3, true};

  ModelGraph compressed = *graph;
  const size_t counted = CountCompressibleTreeNodes(*graph, box);
  EXPECT_EQ(CompressTreesWithRanges(&compressed, box), counted);
  GraphRuntime full(&*graph);
  GraphRuntime small(&compressed);

  Matrix raw(150, width_);
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < numeric; ++c) {
      raw.at(r, c) = rng.UniformDouble(box[c].min, box[c].max);
    }
    if (categorical) {
      raw.at(r, numeric) = static_cast<double>(rng.Uniform(4));
    }
  }
  auto a = full.RunToScores(raw);
  auto b = small.RunToScores(raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_NEAR((*a)[r], (*b)[r], 1e-9) << "row " << r;
  }
}

TEST_P(PipelineEquivalenceTest, ThresholdShortCircuitMatchesFullScores) {
  flock::ModelEntry entry;
  entry.name = "prop";
  entry.pipeline = pipeline_;
  auto graph = pipeline_.Compile();
  ASSERT_TRUE(graph.ok());
  entry.graph = std::move(graph).value();
  flock::ModelRegistry::AnalyzeEntry(&entry);

  Matrix raw = RandomRaw(300, 0x55);
  auto scores = flock::ScoreBatch(entry, raw);
  ASSERT_TRUE(scores.ok());
  Random rng(seed_ ^ 0x56);
  for (int i = 0; i < 4; ++i) {
    double threshold = rng.UniformDouble(0.05, 0.95);
    for (auto op :
         {flock::ThresholdOp::kGt, flock::ThresholdOp::kGe,
          flock::ThresholdOp::kLt, flock::ThresholdOp::kLe}) {
      auto verdicts =
          flock::ScoreThresholdBatch(entry, raw, threshold, op);
      ASSERT_TRUE(verdicts.ok());
      for (size_t r = 0; r < raw.rows(); ++r) {
        double s = (*scores)[r];
        bool expected = op == flock::ThresholdOp::kGt   ? s > threshold
                        : op == flock::ThresholdOp::kGe ? s >= threshold
                        : op == flock::ThresholdOp::kLt ? s < threshold
                                                        : s <= threshold;
        ASSERT_EQ((*verdicts)[r], expected)
            << "row " << r << " threshold " << threshold;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineEquivalenceTest,
    ::testing::Values(Config{1, 5, 3, 0, false},
                      Config{2, 15, 4, 2, true},
                      Config{3, 25, 5, 6, true},
                      Config{4, 10, 6, 1, false},
                      Config{5, 40, 3, 4, true},
                      Config{6, 8, 2, 10, true}));

// ---------------------------------------------------------------------------
// Trainer quality holds across seeds (guards against lucky-seed tests)
// ---------------------------------------------------------------------------

class TrainerQualityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrainerQualityTest, GbtSeparatesLinearBoundary) {
  Random rng(GetParam());
  Dataset data;
  data.x = Matrix(1500, 4);
  data.y.resize(1500);
  for (size_t r = 0; r < 1500; ++r) {
    for (size_t c = 0; c < 4; ++c) data.x.at(r, c) = rng.NextGaussian();
    data.y[r] =
        data.x.at(r, 0) + data.x.at(r, 1) - data.x.at(r, 2) > 0 ? 1 : 0;
  }
  auto [train, test] = TrainTestSplit(data, 0.3, GetParam());
  GbtOptions options;
  options.num_trees = 30;
  options.seed = GetParam();
  TreeEnsembleModel model = TrainGradientBoosting(train, options);
  std::vector<double> scores;
  for (size_t r = 0; r < test.size(); ++r) {
    scores.push_back(model.Score(test.x.row(r)));
  }
  EXPECT_GT(Auc(scores, test.y), 0.85) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainerQualityTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace flock::ml
