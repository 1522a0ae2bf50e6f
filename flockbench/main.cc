// The repo benchmark. Usage:
//
//   flockbench --workload scan_predict|serve_point|all
//              --seed N --seconds S --trace 0|1 [--commit SHA]
//
// Each workload builds its own engine from the seed, checks every answer,
// and prints its metrics by name with their units. With --trace 0 the
// final line is one JSON object carrying the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, timed from
// this benchmark's own calls into each layer (nothing inside the engine
// is instrumented). A configuration gate that did not take effect exits
// with code 2 and prints no number; an answer mismatch prints the result
// with "correct": false and exits with code 1.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace flockbench {
namespace {

/// Every per-layer metric the traced run reports, in output order, with
/// its unit and the end-to-end figure it should move (and on which
/// workload). A workload that does not exercise a layer reports it as 0,
/// for example the WAL metrics on scan_predict's in-memory engine. The
/// WAL, replication and write figures come from serve_point's
/// ingest_mixed phase.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};
const LayerMetric kPerLayer[] = {
    {"sql.parse_us", "us",
     "serve_point p50_ms through plan-cache misses; flat on scan_predict"},
    {"sql.plan_us", "us",
     "serve_point p50_ms through misses; flat on scan_predict"},
    {"sql.optimize_us", "us",
     "serve_point p50_ms through misses (includes the cross-optimizer hook); "
     "flat on scan_predict"},
    {"sql.lower_us", "us", "serve_point p50_ms; flat on scan_predict"},
    {"sql.execute_us", "us", "serve_point p50_ms and throughput_qps"},
    {"sql.plan_cache.lookup_us", "us", "serve_point p50_ms"},
    {"sql.plan_cache.hit_rate", "ratio", "serve_point p50_ms"},
    {"exec.threshold_query.scan_ms", "ms",
     "scan_predict p50_ms (threshold query)"},
    {"exec.threshold_query.filter_ms", "ms",
     "scan_predict p50_ms (threshold query)"},
    {"exec.threshold_query.predict_ms", "ms",
     "scan_predict p50_ms (threshold query)"},
    {"exec.threshold_query.aggregate_ms", "ms",
     "scan_predict p50_ms (threshold query)"},
    {"exec.score_query.scan_ms", "ms",
     "scan_predict score_query_p50_ms and throughput_qps"},
    {"exec.score_query.filter_ms", "ms",
     "scan_predict score_query_p50_ms and throughput_qps"},
    {"exec.score_query.predict_ms", "ms",
     "scan_predict score_query_p50_ms and throughput_qps"},
    {"exec.score_query.aggregate_ms", "ms",
     "scan_predict score_query_p50_ms and throughput_qps"},
    {"storage.segments_scanned", "count",
     "scan_predict p50_ms and throughput_qps"},
    {"storage.segments_pruned", "count",
     "scan_predict p50_ms and throughput_qps"},
    {"storage.rows_examined_per_row_returned", "ratio", "serve_point p50_ms"},
    {"score.assemble_ns_per_row", "ns", "scan_predict score_query_p50_ms"},
    {"score.batch_ns_per_row", "ns", "scan_predict score_query_p50_ms"},
    {"score.threshold_ns_per_row", "ns",
     "scan_predict p50_ms (threshold query)"},
    {"score.kernel_row_ns", "ns", "serve_point p50_ms (a small move)"},
    {"score.runtime_ns_per_row", "ns",
     "nothing; the GraphRuntime baseline the kernel is compared with"},
    {"xopt.filters_split", "count", "scan_predict p50_ms (threshold query)"},
    {"xopt.predicates_pushed_up", "count",
     "scan_predict p50_ms (threshold query)"},
    {"xopt.features_pruned", "count", "scan_predict p50_ms (threshold query)"},
    {"xopt.tree_nodes_compressed", "count",
     "scan_predict p50_ms (threshold query)"},
    {"flock.write_quiescent_ms", "ms",
     "ingest_mixed write_p50_ms; the gap to it is the engine-lock wait"},
    {"flock.deploy_quiescent_ms", "ms",
     "ingest_mixed deploy_p50_ms; the gap to it is the engine-lock wait"},
    {"serve.submit_us", "us", "serve_point tail_ms"},
    {"serve.exec_p50_ms", "ms", "serve_point p50_ms"},
    {"serve.exec_p99_ms", "ms", "serve_point tail_ms"},
    {"serve.queue_wait_ms", "ms", "serve_point tail_ms"},
    {"serve.overhead_us", "us", "serve_point throughput_qps"},
    {"serve.shed", "count", "failed (every workload)"},
    {"serve.errors", "count", "failed (every workload)"},
    {"wal.bytes_per_row", "B", "ingest_mixed write_p50_ms and recovery_s"},
    {"wal.syncs_per_write", "count",
     "ingest_mixed write_p50_ms and recovery_s"},
    {"wal.records_per_write", "count",
     "ingest_mixed write_p50_ms and recovery_s"},
    {"wal.replay_records_per_s", "1/s", "ingest_mixed recovery_s"},
    {"repl.catchup_records_per_s", "1/s", "ingest_mixed catchup_s"},
    {"score_query_p50_ms", "ms",
     "end to end: scan_predict AVG(PREDICT) query, traced"},
    {"score_query_p90_ms", "ms",
     "end to end: scan_predict AVG(PREDICT) query, traced"},
    {"read_p50_ms", "ms", "end to end: serve_point reads, traced"},
    {"read_p99_ms", "ms", "end to end: serve_point reads, traced"},
    {"write_p50_ms", "ms",
     "end to end: ingest_mixed inserts from scheduled send"},
    {"write_p90_ms", "ms",
     "end to end: ingest_mixed inserts from scheduled send"},
    {"deploy_p50_ms", "ms",
     "end to end: ingest_mixed redeploys under load"},
    {"recovery_s", "s", "end to end: ingest_mixed Open after the load"},
    {"catchup_s", "s",
     "end to end: ingest_mixed replica bootstrap and catch-up"},
    {"trace.overhead_pct", "%",
     "traced minus untraced rounds of the same load"},
    {"trace.reconcile_error_pct", "%",
     "serve_point: stage sum against the client-observed mean"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: flockbench --workload "
               "scan_predict|serve_point|all --seed N "
               "--seconds S --trace 0|1 [--commit SHA]\n",
               why);
  std::exit(64);
}

/// Fills in the per-layer metrics the workload did not exercise and
/// rejects names the canonical list does not know.
std::vector<Metric> CanonicalPerLayer(const Report& report) {
  std::map<std::string, Metric> given;
  for (const Metric& m : report.per_layer) given[m.name] = m;
  std::vector<Metric> out;
  for (const LayerMetric& entry : kPerLayer) {
    auto it = given.find(entry.name);
    if (it == given.end()) {
      out.push_back(Metric{entry.name, 0.0, entry.unit});
      continue;
    }
    if (it->second.unit != entry.unit) Fatal("unit mismatch for " + it->first);
    out.push_back(it->second);
    given.erase(it);
  }
  if (!given.empty()) {
    Fatal("unlisted per-layer metric " + given.begin()->first);
  }
  return out;
}

/// Prints one line per metric; per-layer lines also say what they move.
void PrintMetrics(const std::string& prefix, const std::vector<Metric>& ms,
                  bool per_layer) {
  for (const Metric& m : ms) {
    std::string moves;
    for (const LayerMetric& entry : kPerLayer) {
      if (per_layer && m.name == entry.name) {
        moves = std::string("  [") + entry.moves + "]";
      }
    }
    std::printf("metric %s%s = %.6g %s%s\n", prefix.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), moves.c_str());
  }
}

std::string JsonMetrics(const std::string& prefix,
                        const std::vector<Metric>& ms, bool* first) {
  std::string out;
  for (const Metric& m : ms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  *first ? "" : ", ", prefix.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
    *first = false;
  }
  return out;
}

}  // namespace
}  // namespace flockbench

int main(int argc, char** argv) {
  using namespace flockbench;
  Args args;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");

  std::vector<std::string> names;
  if (args.workload == "all") {
    names = {"scan_predict", "serve_point"};
  } else if (args.workload == "scan_predict" ||
             args.workload == "serve_point") {
    names = {args.workload};
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("flockbench: workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u commit=%s build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), commit.c_str(),
              FLOCKBENCH_BUILD_TYPE);
  std::fflush(stdout);

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  bool first = true;
  std::string json_metrics;
  for (const std::string& name : names) {
    Args one = args;
    one.workload = name;
    Report report =
        name == "scan_predict" ? RunScanPredict(one) : RunServePoint(one);
    std::vector<Metric> shown =
        args.trace ? CanonicalPerLayer(report) : report.end_to_end;
    PrintMetrics(name + ".", args.trace ? shown : report.named, args.trace);
    std::fflush(stdout);
    correct = correct && report.correct;
    attempted += report.attempted;
    failed += report.failed;
    json_metrics += JsonMetrics(names.size() > 1 ? name + "." : "", shown,
                                &first);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
