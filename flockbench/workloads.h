#ifndef FLOCKBENCH_WORKLOADS_H_
#define FLOCKBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "flock/flock_engine.h"
#include "serve/server.h"
#include "users.h"
#include "util.h"

namespace flockbench {

Report RunScanPredict(const Args& args);
Report RunServePoint(const Args& args);

/// serve_point's durable engine and the server in front of it, with the
/// data directory it was opened on and the run's scratch directory.
struct PointEngine {
  ::flock::flock::FlockEngineOptions options;
  std::unique_ptr<::flock::flock::FlockEngine> engine;
  std::unique_ptr<::flock::serve::PredictionServer> server;
  std::string dir;
  std::string work;
};

/// FsyncPolicy::kEveryRecord, the production default.
::flock::flock::FlockDurabilityConfig Durability();

/// serve_point's second phase (ingest_mixed.cc): `seconds` of durable
/// writes beside reads on `target`, then recovery and replica catch-up.
/// Destroys the engine and server; adds its phases, its named figures
/// and, traced, its per-layer metrics to `report`.
void RunIngestMixed(const Args& args, double seconds,
                    const UsersFixture& fixture, PointEngine* target,
                    Report* report);

}  // namespace flockbench

#endif  // FLOCKBENCH_WORKLOADS_H_
