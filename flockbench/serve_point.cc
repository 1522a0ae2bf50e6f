// serve_point: point-PREDICT serving, closed loop. Two load threads each
// drive four LoopbackClient sessions, and every session waits for its
// reply before sending its next read, against a PredictionServer with
// four workers and production defaults (micro-batching off, no
// deadline), sql.num_threads = 1. Each thread draws ids from a seeded
// Zipf(1.0) over the 4096-row users table, so 4096 distinct statements
// compete for the 256-entry plan cache: per-request fixed costs
// (admission, plan-cache lookup, parse/optimize on a miss, lowering, a
// one-segment filter) dominate and scoring is a single row.
//
// Eight sessions keep all four workers busy. With one session per worker
// the processors idle between a reply and the next request, and waking
// them costs more, and varies more with the load of the host, than the
// request itself: such runs moved by a quarter from one to the next.
//
// The engine is durable (FsyncPolicy::kEveryRecord), which reads do not
// touch. The last quarter of the run is the ingest_mixed phase
// (ingest_mixed.cc): writes beside reads, recovery and replica catch-up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "common/stopwatch.h"
#include "users.h"
#include "workloads.h"

namespace flockbench {
namespace {

using ::flock::Stopwatch;
using ::flock::flock::FlockEngine;

constexpr int kSetupRepeats = 3;
constexpr size_t kLoadThreads = 2;
constexpr size_t kSessionsPerThread = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kWarmupReads = 1000;
/// Width of the windows the read figures are taken over.
constexpr double kWindowS = 1.0;
/// Share of the run given to the ingest_mixed phase, and its floor: the
/// phase must reach its first redeploy (slot 50 at 40 writes/s).
constexpr double kIngestShare = 0.25;
constexpr double kMinIngestS = 2.0;
/// Stated tolerance of the outside-in reconciliation.
constexpr double kReconcileTolerancePct = 25.0;

}  // namespace

Report RunServePoint(const Args& args) {
  namespace fs = std::filesystem;
  Report report;
  report.workload = "serve_point";
  const double ingest_s = std::max(args.seconds * kIngestShare, kMinIngestS);
  const double read_s = args.seconds - args.seconds * kIngestShare;

  PointEngine point;
  point.options.sql.num_threads = 1;
  point.work = (fs::path(".bench_work") /
                ("serve_point-" + std::to_string(getpid()))).string();
  fs::remove_all(point.work);
  ::flock::serve::ServerOptions server_options;
  server_options.admission.num_workers = kWorkers;

  // Each set-up opens a fresh engine on a fresh directory with every
  // option fixed at construction (the plan cache is not invalidated by a
  // live change of the cross-optimizer settings); only the last one is
  // kept. The warm-up goes straight to the engine and the server is built
  // after it, so the server's histograms hold the load alone.
  UsersFixture fixture;
  std::vector<double> setup_s;
  uint64_t warm_attempted = 0, warm_ok = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    point.server.reset();
    point.engine.reset();
    if (!point.dir.empty()) fs::remove_all(point.dir);
    point.dir = (fs::path(point.work) / ("setup" + std::to_string(rep)))
                    .string();
    fs::create_directories(point.dir);
    Stopwatch timer;
    point.engine = std::make_unique<FlockEngine>(point.options);
    ::flock::Status opened = point.engine->Open(point.dir, Durability());
    if (!opened.ok()) Fatal("Open: " + opened.ToString());
    fixture = LoadUsers(point.engine.get(), args.seed);
    DirectReads(point.engine.get(), fixture, args.seed ^ 0x3a3aULL,
                kWarmupReads, &report, &warm_attempted, &warm_ok);
    point.server = std::make_unique<::flock::serve::PredictionServer>(
        point.engine.get(), server_options);
    setup_s.push_back(timer.ElapsedSeconds());
  }
  report.Phase("warmup", warm_attempted, warm_ok);
  FlockEngine* engine = point.engine.get();
  ::flock::serve::PredictionServer* server = point.server.get();
  if (server->microbatcher() != nullptr) {
    GateFailed("micro-batching is on; serve_point measures the default path");
  }

  const EngineCounters before = EngineCounters::Read(engine);

  ReaderStats reads;
  std::vector<double> untraced_rounds, traced_rounds;
  const int rounds = args.trace ? kTraceRounds : 1;
  const double round_s = read_s / rounds;
  for (int round = 0; round < rounds; ++round) {
    const bool traced = args.trace && TracedRound(round);
    auto end = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(round_s));
    ReaderStats r =
        RunReaders(server, fixture, kLoadThreads, kSessionsPerThread,
                   args.seed + round, end, traced, &report);
    (traced ? traced_rounds : untraced_rounds).push_back(Median(r.latency_ms));
    reads.Merge(std::move(r), reads.elapsed_s);
  }
  report.Phase("load", reads.attempted, reads.succeeded);

  const CounterDelta counted = Delta(before, EngineCounters::Read(engine),
                                     static_cast<double>(reads.succeeded));
  const auto server_load = server->Snapshot();
  if (!(counted.hit_rate > 0.0 && counted.hit_rate < 1.0)) {
    GateFailed("plan-cache hit rate " + std::to_string(counted.hit_rate) +
               " is not strictly between 0 and 1");
  }
  std::printf("plan cache: hit rate %.4f over %llu lookups (capacity %zu)\n",
              counted.hit_rate,
              static_cast<unsigned long long>(counted.lookups),
              engine->sql()->plan_cache()->capacity());

  const WindowedReads windowed = Windowed(reads, kWindowS);
  const double setup = Median(setup_s);
  std::printf("samples: reads=%zu over %.2f s; throughput and latencies are "
              "medians over %zu windows of %.1f s (whole load: %.1f reads/s, "
              "p50 %.4f ms, p99 %.4f ms)\n",
              reads.latency_ms.size(), reads.elapsed_s, windowed.windows,
              kWindowS, reads.succeeded / reads.elapsed_s,
              Median(reads.latency_ms), Percentile(reads.latency_ms, 99));
  report.named = {
      {"setup_s", setup, "s"},
      {"throughput_qps", windowed.qps, "1/s"},
      {"read_p50_ms", windowed.p50_ms, "ms"},
      {"read_p90_ms", windowed.p90_ms, "ms"},
      {"read_p99_ms", windowed.p99_ms, "ms"},
  };
  report.end_to_end = {
      {"setup_s", setup, "s"},
      {"throughput_qps", windowed.qps, "1/s"},
      {"p50_ms", windowed.p50_ms, "ms"},
      {"tail_ms", windowed.p90_ms, "ms"},
  };
  PointLayers layers;
  if (args.trace) {
    layers = MeasurePointLayers(engine, fixture, args.seed, &report);
  }
  RunIngestMixed(args, ingest_s, fixture, &point, &report);
  fs::remove_all(point.work);
  report.named.push_back({"failed_ratio",
                          static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted),
                          "ratio"});
  if (!args.trace) return report;

  // ---- per-layer metrics (traced run) ----
  std::vector<Metric> ingest = std::move(report.per_layer);
  report.per_layer = PointLayerMetrics(layers, counted, reads, server_load);
  report.per_layer.insert(report.per_layer.end(), ingest.begin(),
                          ingest.end());

  // Outside-in reconciliation: the front end (parse, plan, optimize) runs
  // only on plan-cache misses; lookup, lowering and execution run on every
  // read; the queue wait is what the client saw beyond the server's own
  // execution time.
  const SqlLayerTimes& s = layers.sql;
  const double client_mean_ms = Mean(reads.latency_ms);
  const double queue_wait_ms = client_mean_ms - server_load.mean_ms;
  const double front_end_us =
      (1.0 - counted.hit_rate) * (s.parse_us + s.plan_us + s.optimize_us);
  const double predicted_ms =
      (front_end_us + s.lookup_us + s.lower_us + s.execute_us) / 1e3 +
      queue_wait_ms;
  const double reconcile_pct = (predicted_ms / client_mean_ms - 1.0) * 100.0;
  std::printf("reconciliation: miss-weighted front end %.1f us + lookup %.1f "
              "us + lower %.1f us + execute %.1f us + queue wait %.1f us = "
              "%.1f us vs client mean %.1f us (%+.1f%%, tolerance +-%.0f%%) "
              "-> %s\n",
              front_end_us, s.lookup_us, s.lower_us, s.execute_us,
              queue_wait_ms * 1e3, predicted_ms * 1e3, client_mean_ms * 1e3,
              reconcile_pct, kReconcileTolerancePct,
              std::fabs(reconcile_pct) <= kReconcileTolerancePct
                  ? "within tolerance"
                  : "outside tolerance");
  Overhead overhead = TracingOverhead(untraced_rounds, traced_rounds);
  PrintOverhead("read_p50_ms", overhead);
  report.per_layer.push_back({"trace.overhead_pct", overhead.median_pct, "%"});
  report.per_layer.push_back(
      {"trace.reconcile_error_pct", std::fabs(reconcile_pct), "%"});
  return report;
}

}  // namespace flockbench
