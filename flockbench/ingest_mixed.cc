// ingest_mixed, the second phase of serve_point: durable writes beside
// reads. serve_point's engine is opened on a fresh directory with
// FsyncPolicy::kEveryRecord (the production default, the same on every
// commit measured); in this phase it serves three closed-loop readers,
// one session each, drawing serve_point's Zipf stream, while one writer
// sends on a fixed schedule (open loop, 40 statements/s): a 16-row INSERT
// of new ids outside the read set, except every 50th slot, which
// redeploys the same serialized churn pipeline (clears the plan cache, is
// WAL-logged, leaves every score unchanged). Write latency is timed from
// the scheduled send time. After the load the engine is destroyed, Open
// is timed on the directory as a crash at that point would leave it
// (recovery), and a fresh replica bootstraps from it and catches up. This
// is the only load where the WAL, the exclusive engine lock and
// plan-cache invalidation carry weight.
//
// It is a phase of serve_point, not a workload of its own, and none of
// its figures is bounded: the engine lock prefers readers, so how long a
// write waits, and how long reads stall behind it, changes by several
// times from run to run.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"
#include "repl/applier.h"
#include "repl/publisher.h"
#include "users.h"
#include "workloads.h"

namespace flockbench {
namespace {

using ::flock::Stopwatch;
using ::flock::flock::FlockDurabilityConfig;
using ::flock::flock::FlockEngine;
using Clock = std::chrono::steady_clock;

constexpr size_t kReaders = 3;
constexpr double kWritesPerSecond = 40.0;
constexpr size_t kRowsPerInsert = 16;
constexpr uint64_t kDeployEvery = 50;
constexpr int kQuiescentInserts = 20;
constexpr int kQuiescentDeploys = 3;

/// The writer's state across rounds: the schedule slot counter, the next
/// new id, and what was acknowledged.
struct Writer {
  FlockEngine* engine = nullptr;
  const ::flock::ml::Pipeline* model = nullptr;
  ::flock::Random rng{1};
  uint64_t slot = 0;
  int64_t next_id = static_cast<int64_t>(kUsers);
  // From the scheduled send; a statement not acknowledged is recorded at
  // kFailedLatencyMs.
  std::vector<double> insert_ms;
  std::vector<double> deploy_ms;
  std::vector<double> late_ms;    // how late the generator sent
  uint64_t inserts_attempted = 0, inserts_ok = 0;
  uint64_t deploys_attempted = 0, deploys_ok = 0;

  std::string NextInsert() {
    std::string sql = "INSERT INTO users VALUES ";
    const char* plans[] = {"basic", "plus", "pro"};
    for (size_t r = 0; r < kRowsPerInsert; ++r) {
      char row[160];
      std::snprintf(row, sizeof(row), "%s(%lld, %.3f, %.3f, %.3f, %.3f, '%s')",
                    r > 0 ? ", " : "", static_cast<long long>(next_id++),
                    20 + rng.NextDouble() * 50, 30 + rng.NextDouble() * 120,
                    rng.NextDouble() * 10, rng.NextDouble() * 100,
                    plans[rng.Uniform(3)]);
      sql += row;
    }
    return sql;
  }

  /// Sends one statement of the kind slot `s` calls for and records its
  /// latency from `due`.
  void Send(uint64_t s, Clock::time_point due) {
    const bool deploy = s % kDeployEvery == kDeployEvery - 1;
    std::string insert = deploy ? std::string() : NextInsert();
    Clock::time_point sent = Clock::now();
    late_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    const bool ok =
        deploy
            ? engine->DeployModel("churn", *model, "flockbench", "redeploy")
                  .ok()
            : engine->Execute(insert).ok();
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    (deploy ? deploys_attempted : inserts_attempted) += 1;
    if (ok) (deploy ? deploys_ok : inserts_ok) += 1;
    (deploy ? deploy_ms : insert_ms).push_back(ok ? ms : kFailedLatencyMs);
  }

  /// Open loop until `end`: slot k of this round is due k/40 s after the
  /// round starts, whatever happened to the previous slot.
  void Run(Clock::time_point end) {
    const Clock::time_point start = Clock::now();
    for (uint64_t k = 0;; ++k) {
      Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k / kWritesPerSecond));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      Send(slot++, due);
    }
  }
};

int64_t CountUsers(FlockEngine* engine) {
  auto result = engine->Execute("SELECT COUNT(*) FROM users");
  if (!result.ok()) Fatal("COUNT(*) failed: " + result.status().ToString());
  return result->batch.GetRow(0)[0].int_value();
}

}  // namespace

FlockDurabilityConfig Durability() {
  FlockDurabilityConfig config;
  config.fsync_policy = ::flock::wal::FsyncPolicy::kEveryRecord;
  return config;
}

void RunIngestMixed(const Args& args, double seconds,
                    const UsersFixture& fixture, PointEngine* target,
                    Report* report) {
  namespace fs = std::filesystem;
  FlockEngine* engine = target->engine.get();
  auto model = ::flock::ml::Pipeline::Deserialize(fixture.serialized_model);
  if (!model.ok()) Fatal("churn pipeline does not deserialize");
  Writer writer;
  writer.engine = engine;
  writer.model = &*model;
  writer.rng = ::flock::Random(args.seed * 7919 + 1);
  uint64_t deploys = 1;  // the set-up deploy
  int64_t acked_rows = static_cast<int64_t>(kUsers);

  // Quiescent writes and deploys (traced run): no readers, so the gap to
  // the same statements under load is the wait for the engine lock.
  std::vector<double> quiet_insert_ms, quiet_deploy_ms;
  if (args.trace) {
    for (int i = 0; i < kQuiescentInserts; ++i) {
      std::string insert = writer.NextInsert();
      Stopwatch timer;
      if (!engine->Execute(insert).ok()) Fatal("quiescent insert failed");
      quiet_insert_ms.push_back(timer.ElapsedMillis());
      acked_rows += kRowsPerInsert;
    }
    for (int i = 0; i < kQuiescentDeploys; ++i) {
      Stopwatch timer;
      if (!engine->DeployModel("churn", *model, "flockbench", "quiet").ok()) {
        Fatal("quiescent deploy failed");
      }
      quiet_deploy_ms.push_back(timer.ElapsedMillis());
      ++deploys;
    }
  }

  ::flock::wal::DurabilityManager* wal = engine->durability();
  const uint64_t wal_bytes_before = wal->bytes_written();
  const uint64_t wal_syncs_before = wal->syncs();
  const uint64_t wal_records_before = wal->records_logged();

  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::thread writer_thread([&] { writer.Run(end); });
  const ReaderStats reads =
      RunReaders(target->server.get(), fixture, kReaders, 1,
                 args.seed ^ 0x1263e57ULL, end, false, report);
  writer_thread.join();
  report->Phase("ingest_read", reads.attempted, reads.succeeded);
  report->Phase("insert", writer.inserts_attempted, writer.inserts_ok);
  report->Phase("deploy", writer.deploys_attempted, writer.deploys_ok);
  if (writer.inserts_ok < 1 || writer.deploys_ok < 1) {
    GateFailed("ingest_mixed completed " + std::to_string(writer.inserts_ok) +
               " inserts and " + std::to_string(writer.deploys_ok) +
               " redeploys; it needs at least one of each");
  }
  acked_rows += static_cast<int64_t>(writer.inserts_ok * kRowsPerInsert);
  deploys += writer.deploys_ok;
  std::printf("writer: %llu slots at %.0f/s, generator lateness p50 %.3f ms "
              "max %.3f ms\n",
              static_cast<unsigned long long>(writer.slot), kWritesPerSecond,
              Median(writer.late_ms), Percentile(writer.late_ms, 100));

  const uint64_t wal_bytes = wal->bytes_written() - wal_bytes_before;
  const uint64_t wal_syncs = wal->syncs() - wal_syncs_before;
  const uint64_t wal_records = wal->records_logged() - wal_records_before;

  // Restart. A graceful server shutdown checkpoints the engine and cuts the
  // WAL, so recovery would replay nothing; instead the directory is copied
  // while the engine is quiescent, which is what a crash at this point
  // leaves (every acknowledged write was fsynced). Open is timed on the copy
  // after the engine is destroyed, and the replica bootstraps from it.
  const std::string crashed = (fs::path(target->work) / "crashed").string();
  fs::copy(target->dir, crashed, fs::copy_options::recursive);
  target->server->Shutdown();
  target->server.reset();
  target->engine.reset();
  Stopwatch recovery_timer;
  auto recovered = std::make_unique<FlockEngine>(target->options);
  ::flock::Status reopened = recovered->Open(crashed, Durability());
  const double recovery_s = recovery_timer.ElapsedSeconds();
  if (!reopened.ok()) Fatal("recovery Open: " + reopened.ToString());
  const uint64_t replayed =
      recovered->durability()->recovery().wal_records_replayed;
  const int64_t primary_rows = CountUsers(recovered.get());
  if (primary_rows != acked_rows) {
    report->Mismatch("after recovery COUNT(*) = " +
                     std::to_string(primary_rows) + ", acknowledged rows = " +
                     std::to_string(acked_rows));
  }
  const uint64_t version = recovered->models()->CurrentVersion("churn");
  if (version != deploys) {
    report->Mismatch("after recovery churn version " +
                     std::to_string(version) + " != deploys " +
                     std::to_string(deploys));
  }

  // A fresh replica bootstraps from the directory and catches up.
  FlockEngine replica(target->options);
  if (!replica.OpenAsReplica().ok()) Fatal("OpenAsReplica failed");
  ::flock::repl::ReplicationPublisher publisher(crashed);
  ::flock::repl::ReplicaApplier applier(&replica, &publisher);
  Stopwatch catchup_timer;
  ::flock::Status caught_up = applier.CatchUp();
  const double catchup_s = catchup_timer.ElapsedSeconds();
  if (!caught_up.ok()) Fatal("replica catch-up: " + caught_up.ToString());
  const int64_t replica_rows = CountUsers(&replica);
  if (replica_rows != primary_rows) {
    report->Mismatch("replica COUNT(*) " + std::to_string(replica_rows) +
                     " != primary " + std::to_string(primary_rows));
  }
  std::printf("recovery: %llu WAL records replayed in %.4f s; replica applied "
              "%llu records in %.4f s\n",
              static_cast<unsigned long long>(replayed), recovery_s,
              static_cast<unsigned long long>(applier.records_applied()),
              catchup_s);
  recovered.reset();

  const double write_p50 = Median(writer.insert_ms);
  const double write_p90 = Percentile(writer.insert_ms, 90);
  std::printf("samples: ingest reads=%zu inserts=%zu deploys=%zu over %.2f "
              "s\n",
              reads.latency_ms.size(), writer.insert_ms.size(),
              writer.deploy_ms.size(), reads.elapsed_s);
  const std::vector<Metric> named = {
      {"ingest_read_qps", reads.succeeded / reads.elapsed_s, "1/s"},
      {"ingest_read_p50_ms", Median(reads.latency_ms), "ms"},
      {"ingest_read_p99_ms", Percentile(reads.latency_ms, 99), "ms"},
      {"write_p50_ms", write_p50, "ms"},
      {"write_p90_ms", write_p90, "ms"},
      {"deploy_p50_ms", Median(writer.deploy_ms), "ms"},
      {"recovery_s", recovery_s, "s"},
      {"catchup_s", catchup_s, "s"},
  };
  report->named.insert(report->named.end(), named.begin(), named.end());
  if (!args.trace) return;

  // ---- per-layer metrics (traced run) ----
  const double writes = static_cast<double>(writer.inserts_attempted +
                                            writer.deploys_attempted);
  const std::vector<Metric> own = {
      {"flock.write_quiescent_ms", Median(quiet_insert_ms), "ms"},
      {"flock.deploy_quiescent_ms", Median(quiet_deploy_ms), "ms"},
      {"wal.bytes_per_row",
       static_cast<double>(wal_bytes) /
           static_cast<double>(writer.inserts_ok * kRowsPerInsert), "B"},
      {"wal.syncs_per_write", wal_syncs / writes, "count"},
      {"wal.records_per_write", wal_records / writes, "count"},
      {"wal.replay_records_per_s", replayed / recovery_s, "1/s"},
      {"repl.catchup_records_per_s", applier.records_applied() / catchup_s,
       "1/s"},
      {"write_p50_ms", write_p50, "ms"},
      {"write_p90_ms", write_p90, "ms"},
      {"deploy_p50_ms", Median(writer.deploy_ms), "ms"},
      {"recovery_s", recovery_s, "s"},
      {"catchup_s", catchup_s, "s"},
  };
  report->per_layer.insert(report->per_layer.end(), own.begin(), own.end());
}

}  // namespace flockbench
