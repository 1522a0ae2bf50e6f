// The point-PREDICT fixture of serve_point and its ingest_mixed phase: a
// 4096-row `users` table, a churn GBDT (40 trees, depth 6) deployed on it,
// the truth of every point read, and the closed-loop readers that
// send a seeded Zipf(s = 1.0) stream of point reads through a
// PredictionServer.
#ifndef FLOCKBENCH_USERS_H_
#define FLOCKBENCH_USERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "flock/flock_engine.h"
#include "ml/pipeline.h"
#include "serve/server.h"
#include "util.h"

namespace flockbench {

constexpr size_t kUsers = 4096;

struct UsersFixture {
  /// The deployed churn pipeline, serialized (ingest_mixed redeploys it).
  std::string serialized_model;
  /// Score of every id, scored serially through GraphRuntime outside the
  /// engine at setup.
  std::vector<double> truth;
  /// `SELECT id, PREDICT(churn, ...) FROM users WHERE id = k` for every k.
  std::vector<std::string> statements;
  /// Zipf rank -> id, a seeded permutation so hot ids are scattered.
  std::vector<size_t> rank_to_id;
};

/// Creates and fills `users` through SQL, trains the churn model from
/// a fixed historical sample and deploys it, then computes the truth.
UsersFixture LoadUsers(::flock::flock::FlockEngine* engine, uint64_t seed);

/// The model's input columns, in input order.
std::string ChurnFeatureSql();

/// Ids of one client's stream: Zipf(1.0) ranks over the 4096 ids.
std::vector<size_t> IdStream(const UsersFixture& fixture, uint64_t seed,
                             size_t length);

/// What the readers observed. Reads are checked bitwise against the truth;
/// a failed or refused read, or one with the wrong row count, is failed.
struct ReaderStats {
  std::vector<double> latency_ms;  // client-observed; failed reads at
                                   // kFailedLatencyMs
  std::vector<double> done_s;      // completion time of each read, from
                                   // the start of the load
  std::vector<double> submit_us;   // traced: Submit until it returned
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  double elapsed_s = 0.0;

  /// Appends `other`, whose clock started `offset_s` after this one's.
  void Merge(ReaderStats other, double offset_s = 0.0);
};

/// Runs `threads` load threads against `server` until `end`, each driving
/// `sessions_per_thread` LoopbackClient sessions from its own seeded
/// stream. Every session is a closed loop: it sends its next read only
/// after its reply arrived. A thread waits for its sessions' replies in
/// the order it sent them, so a reply that arrives before an earlier one
/// is timed when the earlier one has been collected. A traced round also
/// times Submit alone. Mismatches go to `report`.
ReaderStats RunReaders(::flock::serve::PredictionServer* server,
                       const UsersFixture& fixture, size_t threads,
                       size_t sessions_per_thread, uint64_t seed,
                       std::chrono::steady_clock::time_point end, bool traced,
                       Report* report);

/// Read throughput and latency taken per `window_s` of completion time and
/// reported as the median over the run's whole windows (the whole run
/// when it is shorter than one window), so that a stall of the host
/// covering fewer than half of the windows does not move them.
struct WindowedReads {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  size_t windows = 0;
};
WindowedReads Windowed(const ReaderStats& reads, double window_s);

/// Sends `count` reads of a stream straight to FlockEngine::Execute from
/// the calling thread (no serving layer), checks each, adds them to
/// `attempted` and `succeeded`, and returns their mean latency. Set-up
/// warms the plan cache this way before the server is built, so the
/// server's own histograms cover the load alone.
double DirectReads(::flock::flock::FlockEngine* engine,
                   const UsersFixture& fixture, uint64_t seed, size_t count,
                   Report* report, uint64_t* attempted, uint64_t* succeeded);

/// Per-layer metrics of serve_point's engine: SQL layer costs over a
/// sample of the stream, scoring costs on the churn model, and the mean
/// of direct reads that bypass the serving layer.
struct PointLayers {
  SqlLayerTimes sql;
  ScoringTimes scoring;
  double direct_mean_ms = 0.0;
};
PointLayers MeasurePointLayers(::flock::flock::FlockEngine* engine,
                               const UsersFixture& fixture, uint64_t seed,
                               Report* report);

/// serve_point's per-layer metrics of the read load: SQL layers, plan
/// cache, storage, scoring, the cross-optimizer's last rewrite, the
/// serving layer, and the reads themselves. `server` is the snapshot of a
/// server built just before the load.
std::vector<Metric> PointLayerMetrics(
    const PointLayers& layers, const CounterDelta& load,
    const ReaderStats& reads,
    const ::flock::serve::ServerMetricsSnapshot& server);

}  // namespace flockbench

#endif  // FLOCKBENCH_USERS_H_
