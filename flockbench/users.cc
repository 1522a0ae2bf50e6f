#include "users.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"
#include "ml/runtime.h"
#include "ml/tree.h"

namespace flockbench {
namespace {

using ::flock::Random;
using ::flock::Stopwatch;
using ::flock::flock::FlockEngine;

const char* const kPlans[] = {"basic", "plus", "pro"};
const char* const kPredict =
    "PREDICT(churn, age, income, tenure, clicks, plan)";

constexpr uint64_t kHistorySeed = 7;

struct User {
  double age, income, tenure, clicks;
  size_t plan;
  bool churned;
};

User NextUser(Random* rng) {
  User user;
  user.age = 20 + rng->NextDouble() * 50;
  user.income = 30 + rng->NextDouble() * 120;
  user.tenure = rng->NextDouble() * 10;
  user.clicks = rng->NextDouble() * 100;
  user.plan = rng->Uniform(3);
  double z = 0.08 * (user.age - 45) - 0.02 * (user.income - 90) -
             0.4 * user.tenure + 0.03 * user.clicks +
             rng->NextGaussian() * 0.5;
  user.churned = z > 0;
  return user;
}

/// Checks one point read; returns true when it counts as succeeded.
/// A wrong score or id is a mismatch recorded in `report`.
bool CheckRead(const ::flock::StatusOr<::flock::sql::QueryResult>& result,
               size_t id, const UsersFixture& fixture, Report* report) {
  if (!result.ok() || result->batch.num_rows() != 1) return false;
  auto row = result->batch.GetRow(0);
  double score = row[1].double_value();
  if (row[0].int_value() != static_cast<int64_t>(id) ||
      std::bit_cast<uint64_t>(score) !=
          std::bit_cast<uint64_t>(fixture.truth[id])) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "read of id %zu: score %.17g vs truth %.17g", id, score,
                  fixture.truth[id]);
    report->Mismatch(buf);
  }
  return true;
}

}  // namespace

std::string ChurnFeatureSql() {
  return "SELECT age, income, tenure, clicks, plan FROM users";
}

UsersFixture LoadUsers(FlockEngine* engine, uint64_t seed) {
  auto created = engine->Execute(
      "CREATE TABLE users (id INT, age DOUBLE, income DOUBLE, tenure DOUBLE, "
      "clicks DOUBLE, plan VARCHAR)");
  if (!created.ok()) {
    Fatal("CREATE TABLE users: " + created.status().ToString());
  }

  // The live table comes from the seed. The model is trained on a fixed
  // historical sample instead, so every seed scores with the same churn
  // model: the seed varies the data and the request stream, not the trees.
  Random rng(seed);
  std::string insert = "INSERT INTO users VALUES ";
  for (size_t i = 0; i < kUsers; ++i) {
    User user = NextUser(&rng);
    char row[160];
    std::snprintf(row, sizeof(row), "%s(%zu, %.3f, %.3f, %.3f, %.3f, '%s')",
                  i > 0 ? ", " : "", i, user.age, user.income, user.tenure,
                  user.clicks, kPlans[user.plan]);
    insert += row;
  }
  auto inserted = engine->Execute(insert);
  if (!inserted.ok()) Fatal("INSERT users: " + inserted.status().ToString());

  Random history(kHistorySeed);
  ::flock::ml::Matrix raw(kUsers, 5);
  std::vector<double> labels(kUsers);
  for (size_t i = 0; i < kUsers; ++i) {
    User user = NextUser(&history);
    raw.at(i, 0) = user.age;
    raw.at(i, 1) = user.income;
    raw.at(i, 2) = user.tenure;
    raw.at(i, 3) = user.clicks;
    raw.at(i, 4) = static_cast<double>(user.plan);
    labels[i] = user.churned ? 1.0 : 0.0;
  }

  ::flock::ml::Pipeline pipeline;
  std::vector<::flock::ml::FeatureSpec> specs;
  for (const char* name : {"age", "income", "tenure", "clicks"}) {
    specs.push_back({name, ::flock::ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back({"plan", ::flock::ml::FeatureKind::kCategorical,
                   {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(::flock::ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  ::flock::ml::Dataset train;
  train.x = pipeline.Transform(raw);
  train.y = labels;
  ::flock::ml::GbtOptions gbt;
  gbt.num_trees = 40;
  gbt.max_depth = 6;
  gbt.seed = kHistorySeed;
  pipeline.SetTreeModel(::flock::ml::TrainGradientBoosting(train, gbt));

  UsersFixture fixture;
  fixture.serialized_model = pipeline.Serialize();
  ::flock::Status deployed =
      engine->DeployModel("churn", pipeline, "flockbench", "users");
  if (!deployed.ok()) Fatal("deploy churn: " + deployed.ToString());

  // The truth is scored outside the engine: the stored rows are read back
  // without PREDICT and run serially through GraphRuntime, so the check
  // covers the engine's scoring path as well as serving and invalidation.
  auto rows = engine->Execute(
      "SELECT id, age, income, tenure, clicks, plan FROM users");
  if (!rows.ok() || rows->batch.num_rows() != kUsers) {
    Fatal("reading back users failed");
  }
  ::flock::ml::Matrix stored(kUsers, 5);
  std::vector<size_t> ids(kUsers);
  for (size_t r = 0; r < kUsers; ++r) {
    auto row = rows->batch.GetRow(r);
    ids[r] = static_cast<size_t>(row[0].int_value());
    for (size_t c = 0; c < 4; ++c) stored.at(r, c) = row[c + 1].double_value();
    stored.at(r, 4) = pipeline.EncodeCategorical(4, row[5].string_value());
  }
  auto graph = pipeline.Compile();
  if (!graph.ok()) Fatal("churn pipeline does not compile");
  auto scores = ::flock::ml::GraphRuntime(&*graph).RunToScores(stored);
  if (!scores.ok()) Fatal("truth scoring failed");
  fixture.truth.assign(kUsers, 0.0);
  for (size_t r = 0; r < kUsers; ++r) fixture.truth[ids[r]] = (*scores)[r];
  for (size_t id = 0; id < kUsers; ++id) {
    fixture.statements.push_back(std::string("SELECT id, ") + kPredict +
                                 " FROM users WHERE id = " +
                                 std::to_string(id));
  }
  fixture.rank_to_id.resize(kUsers);
  for (size_t i = 0; i < kUsers; ++i) fixture.rank_to_id[i] = i;
  Random shuffle(seed ^ 0x5eedULL);
  for (size_t i = kUsers - 1; i > 0; --i) {
    std::swap(fixture.rank_to_id[i],
              fixture.rank_to_id[shuffle.Uniform(i + 1)]);
  }
  return fixture;
}

std::vector<size_t> IdStream(const UsersFixture& fixture, uint64_t seed,
                             size_t length) {
  ::flock::ZipfSampler zipf(kUsers, 1.0, seed);
  std::vector<size_t> ids(length);
  for (size_t& id : ids) id = fixture.rank_to_id[zipf.Next()];
  return ids;
}

void ReaderStats::Merge(ReaderStats other, double offset_s) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  for (double t : other.done_s) done_s.push_back(offset_s + t);
  submit_us.insert(submit_us.end(), other.submit_us.begin(),
                   other.submit_us.end());
  attempted += other.attempted;
  succeeded += other.succeeded;
  elapsed_s = std::max(elapsed_s, offset_s + other.elapsed_s);
}

ReaderStats RunReaders(::flock::serve::PredictionServer* server,
                       const UsersFixture& fixture, size_t threads,
                       size_t sessions_per_thread, uint64_t seed,
                       std::chrono::steady_clock::time_point end, bool traced,
                       Report* report) {
  // A request is Submit on a LoopbackClient's session followed by waiting
  // on its future, which is what LoopbackClient::Execute does with its
  // default single-attempt policy. Calling the two halves here lets a
  // thread keep several sessions busy and lets a traced round time Submit
  // alone.
  using Reply = std::future<::flock::StatusOr<::flock::sql::QueryResult>>;
  struct InFlight {
    uint64_t session = 0;
    size_t id = 0;
    int64_t start_ns = 0;
    Reply reply;
  };
  std::vector<std::unique_ptr<::flock::serve::LoopbackClient>> sessions;
  for (size_t s = 0; s < threads * sessions_per_thread; ++s) {
    sessions.push_back(
        std::make_unique<::flock::serve::LoopbackClient>(server));
    if (!sessions.back()->status().ok()) Fatal("session open failed");
  }
  std::vector<ReaderStats> per_thread(threads);
  std::vector<Report> mismatches(threads);
  std::vector<std::thread> workers;
  const int64_t start_ns = NowNs();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ReaderStats& stats = per_thread[t];
      ::flock::ZipfSampler zipf(kUsers, 1.0, seed * 131 + t);
      auto send = [&](InFlight* read) {
        read->id = fixture.rank_to_id[zipf.Next()];
        read->start_ns = NowNs();
        read->reply =
            server->Submit(read->session, fixture.statements[read->id]);
        if (traced) {
          stats.submit_us.push_back((NowNs() - read->start_ns) / 1e3);
        }
      };
      std::vector<InFlight> reads(sessions_per_thread);
      for (size_t s = 0; s < sessions_per_thread; ++s) {
        reads[s].session =
            sessions[t * sessions_per_thread + s]->session_id();
        send(&reads[s]);
      }
      for (size_t open = reads.size(), s = 0; open > 0;
           s = (s + 1) % reads.size()) {
        InFlight& read = reads[s];
        if (!read.reply.valid()) continue;
        ::flock::StatusOr<::flock::sql::QueryResult> result = read.reply.get();
        const int64_t done = NowNs();
        ++stats.attempted;
        if (CheckRead(result, read.id, fixture, &mismatches[t])) {
          ++stats.succeeded;
          stats.latency_ms.push_back((done - read.start_ns) / 1e6);
        } else {
          stats.latency_ms.push_back(kFailedLatencyMs);
        }
        stats.done_s.push_back((done - start_ns) / 1e9);
        if (std::chrono::steady_clock::now() < end) {
          send(&read);
        } else {
          --open;
        }
      }
      stats.elapsed_s = (NowNs() - start_ns) / 1e9;
    });
  }
  for (auto& w : workers) w.join();
  ReaderStats total;
  for (size_t t = 0; t < threads; ++t) {
    total.Merge(std::move(per_thread[t]));
    if (!mismatches[t].correct) {
      report->Mismatch("a reader saw a wrong answer (printed above)");
    }
  }
  return total;
}

WindowedReads Windowed(const ReaderStats& reads, double window_s) {
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(reads.elapsed_s / window_s));
  const double width = windows == 1 ? reads.elapsed_s : window_s;
  std::vector<std::vector<double>> latency(windows);
  std::vector<double> succeeded(windows, 0.0);
  for (size_t i = 0; i < reads.latency_ms.size(); ++i) {
    const size_t w = static_cast<size_t>(reads.done_s[i] / width);
    if (w >= windows) continue;  // the partial window at the end
    latency[w].push_back(reads.latency_ms[i]);
    if (reads.latency_ms[i] < kFailedLatencyMs) succeeded[w] += 1.0;
  }
  std::vector<double> qps, p50, p90, p99;
  for (size_t w = 0; w < windows; ++w) {
    qps.push_back(succeeded[w] / width);
    p50.push_back(Median(latency[w]));
    p90.push_back(Percentile(latency[w], 90));
    p99.push_back(Percentile(latency[w], 99));
  }
  return {Median(qps), Median(p50), Median(p90), Median(p99), windows};
}

double DirectReads(FlockEngine* engine, const UsersFixture& fixture,
                   uint64_t seed, size_t count, Report* report,
                   uint64_t* attempted, uint64_t* succeeded) {
  std::vector<double> ms;
  for (size_t id : IdStream(fixture, seed, count)) {
    Stopwatch timer;
    auto result = engine->Execute(fixture.statements[id]);
    ms.push_back(timer.ElapsedMillis());
    ++*attempted;
    if (CheckRead(result, id, fixture, report)) {
      ++*succeeded;
    } else {
      ms.back() = kFailedLatencyMs;
    }
  }
  return Mean(ms);
}

PointLayers MeasurePointLayers(FlockEngine* engine, const UsersFixture& fixture,
                               uint64_t seed, Report* report) {
  PointLayers out;
  std::vector<std::string> sample;
  for (size_t id : IdStream(fixture, seed ^ 0x1a7e5ULL, 512)) {
    sample.push_back(fixture.statements[id]);
  }
  out.sql = TimeSqlLayers(engine, sample, 1);
  out.scoring = TimeScoring(engine, "churn", ChurnFeatureSql(), 0.8);
  uint64_t attempted = 0, succeeded = 0;
  out.direct_mean_ms = DirectReads(engine, fixture, seed ^ 0xd12ec7ULL, 2000,
                                   report, &attempted, &succeeded);
  if (succeeded != attempted) Fatal("direct point read failed");
  return out;
}

std::vector<Metric> PointLayerMetrics(
    const PointLayers& layers, const CounterDelta& load,
    const ReaderStats& reads,
    const ::flock::serve::ServerMetricsSnapshot& server) {
  std::vector<Metric> out = EngineLayerMetrics(
      layers.sql, load, layers.scoring, layers.sql.last_rewrite);
  const double client_mean_ms = Mean(reads.latency_ms);
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  const std::vector<Metric> serving = {
      {"serve.submit_us", Mean(reads.submit_us), "us"},
      {"serve.exec_p50_ms", server.p50_ms, "ms"},
      {"serve.exec_p99_ms", server.p99_ms, "ms"},
      {"serve.queue_wait_ms", client_mean_ms - server.mean_ms, "ms"},
      {"serve.overhead_us", (client_mean_ms - layers.direct_mean_ms) * 1e3,
       "us"},
      {"serve.shed", count(server.requests_shed), "count"},
      {"serve.errors", count(server.requests_error), "count"},
      {"read_p50_ms", Median(reads.latency_ms), "ms"},
      {"read_p99_ms", Percentile(reads.latency_ms, 99), "ms"},
  };
  out.insert(out.end(), serving.begin(), serving.end());
  return out;
}

}  // namespace flockbench
