#ifndef FLOCK_FLOCK_FLOCK_ENGINE_H_
#define FLOCK_FLOCK_FLOCK_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/rw_mutex.h"
#include "flock/cross_optimizer.h"
#include "flock/deployment.h"
#include "flock/model_registry.h"
#include "flock/predict_functions.h"
#include "sql/engine.h"
#include "storage/database.h"
#include "wal/durability.h"

namespace flock::flock {

/// Configuration for Open(): how the engine persists to its data
/// directory, and which optional components recover/log alongside it.
struct FlockDurabilityConfig {
  wal::FsyncPolicy fsync_policy = wal::FsyncPolicy::kEveryRecord;
  int group_commit_interval_ms = 2;
  /// Provenance catalog to recover into and log from (optional; must
  /// outlive the engine).
  prov::Catalog* catalog = nullptr;
  /// Policy engine whose decision timeline should be durable (optional;
  /// must outlive the engine).
  policy::PolicyEngine* policy = nullptr;
};

/// Registry key under which a rollout's candidate pipeline is installed
/// as a (non-user-visible) specialization of `model`. The serving layer
/// rewrites PREDICT calls to this key for shadow/canary traffic; access
/// control still runs against the base model.
std::string RolloutCandidateKey(const std::string& model);

struct FlockEngineOptions {
  sql::EngineOptions sql;
  CrossOptimizer::Options cross;
  /// Master switch for the SQLxML cross-optimizer. Off = "SONNX" config
  /// (in-DB inference, relational optimizations only); on = "SONNX-ext".
  bool enable_cross_optimizer = true;
};

/// The Flock engine: a SQL engine with models as first-class objects and
/// in-DBMS inference (paper §2 & §4.1).
///
/// Composition: storage::Database (tables) + sql::SqlEngine (parse / plan /
/// optimize / execute) + ModelRegistry (deployed pipelines, versioned and
/// access-controlled) + CrossOptimizer (hybrid SQLxML rewrites installed as
/// the engine's plan-rewriter hook) + PREDICT kernels in the function
/// registry. SQL gains:
///
///   CREATE MODEL churn FROM '<serialized pipeline>';
///   SELECT id, PREDICT(churn, age, plan, spend) FROM users
///   WHERE region = 'US' AND PREDICT(churn, age, plan, spend) > 0.8;
///   DROP MODEL churn;
///
/// ## Locking contract (concurrent Execute)
///
/// Execute is safe to call from any number of threads. A single
/// reader/writer lock (`engine_mu_`, a writer-priority `RwMutex`: once a
/// writer waits, new readers queue behind it, so sustained query load
/// cannot starve DDL, DML or deploys) arbitrates:
///
///  * **Shared (many concurrent holders):** SELECT / EXPLAIN statements
///    that do not touch the catalog views. Scoring, plan-cache lookups,
///    the cross-optimizer and the model registry are all individually
///    thread-safe under the shared lock, and each execution lowers its
///    own physical plan, so queries never share mutable operator state.
///  * **Exclusive (single holder, no readers):** everything that mutates
///    shared engine state — DDL (CREATE/DROP TABLE, CREATE/DROP MODEL),
///    DML writes (INSERT/UPDATE/DELETE; storage tables are not safe for
///    concurrent mutation), catalog-view refresh (queries naming
///    `flock_models` / `flock_audit` rebuild those tables first),
///    ExecuteScript, DeployModel / DeployTransaction::Commit,
///    SetPrincipal, and ExecuteAs (which swaps the scoring principal for
///    the duration of the statement).
///
/// Model entries returned by the registry are only freed by DROP/redeploy,
/// which require the exclusive lock — so a scoring query holding the
/// shared lock can never observe a dangling ModelEntry. The SQL plan
/// cache is invalidated under the exclusive lock by every DDL statement,
/// model (re)deploy, catalog refresh and cross-optimizer setting change;
/// stale plans (dropped tables, superseded model specializations) are
/// therefore unreachable. A plan compressed to a table's statistics is
/// dropped at lookup once DML has moved that table's version.
///
/// The non-Execute accessors (database(), sql(), models(), ...) are for
/// single-threaded setup/inspection and do not take the lock.
class FlockEngine {
 public:
  explicit FlockEngine(FlockEngineOptions options = {});

  FlockEngine(const FlockEngine&) = delete;
  FlockEngine& operator=(const FlockEngine&) = delete;

  /// Makes the engine durable against `data_dir`: recovers any existing
  /// snapshot + WAL into the engine (tables, models, audit log, and the
  /// configured catalog/policy components), then logs every subsequent
  /// committed mutation. Call once, before serving traffic; takes the
  /// exclusive lock. Derived state (plan cache, catalog views) is
  /// rebuilt, not recovered.
  Status Open(const std::string& data_dir,
              FlockDurabilityConfig config = {});

  /// Puts the engine in read-only replica mode: no local durability, and
  /// every statement that is not a plain SELECT/EXPLAIN fails with
  /// Status::Redirect (the client must retarget the primary). State
  /// arrives exclusively through InstallReplicaSnapshot (bootstrap) and
  /// ApplyReplicated (streamed WAL records) — the same replay path crash
  /// recovery uses, so a replica is bit-for-bit a recovered primary.
  Status OpenAsReplica(FlockDurabilityConfig config = {});

  bool replica() const { return replica_; }

  /// Replica bootstrap / re-bootstrap: wipes all engine state (tables,
  /// models, audit, provenance, policy timeline) and installs the
  /// snapshot image. Takes the exclusive lock.
  Status InstallReplicaSnapshot(const wal::SnapshotData& snapshot);

  /// Applies one streamed WAL record under the exclusive lock, through
  /// the shared recovery replay path. DDL and model records invalidate
  /// the plan cache, exactly as their primary-side counterparts do.
  Status ApplyReplicated(const wal::WalRecord& record);

  /// Failover: turns this replica into a full primary durable against
  /// `data_dir` (a fresh directory), with the WAL epoch seeded at
  /// `initial_epoch`. Seeding above the old primary's epoch *fences* it:
  /// any coordinator or replica comparing epochs sees the promoted node
  /// as strictly newer. An immediate checkpoint persists the streamed
  /// state before the first post-promotion write is acknowledged.
  Status PromoteToPrimary(const std::string& data_dir,
                          FlockDurabilityConfig config,
                          uint64_t initial_epoch);

  /// Snapshots all durable state and truncates the WAL. Takes the
  /// exclusive lock; cheap no-op error if the engine is not durable.
  Status Checkpoint();

  bool durable() const { return durability_ != nullptr; }
  wal::DurabilityManager* durability() { return durability_.get(); }

  /// Executes one SQL statement (including CREATE/DROP MODEL). Queries
  /// touching the model catalog views (`flock_models`, `flock_audit`)
  /// see a snapshot refreshed at statement start — models are data, so
  /// they are queryable like any other table:
  ///
  ///   SELECT name, version, created_by FROM flock_models;
  ///   SELECT principal, COUNT(*) FROM flock_audit GROUP BY principal;
  ///
  /// `exec_opts` carries per-call flags (tracing) down to the SQL layer.
  StatusOr<sql::QueryResult> Execute(const std::string& sql,
                                     const sql::ExecOptions& exec_opts = {});

  /// Executes one statement with `principal` attached for access control
  /// and audit, without disturbing the engine-wide principal. Always
  /// takes the exclusive lock (the scoring context is shared), so
  /// per-principal traffic serializes; the serving layer routes
  /// default-principal queries through Execute's shared path instead.
  StatusOr<sql::QueryResult> ExecuteAs(
      const std::string& sql, const std::string& principal,
      const sql::ExecOptions& exec_opts = {});

  /// Rebuilds the `flock_models` / `flock_audit` catalog tables from the
  /// registry (Execute calls this lazily; exposed for tests). Takes the
  /// exclusive lock.
  Status RefreshCatalogTables();

  /// Executes a ';'-separated script, returning the last result. Takes
  /// the exclusive lock (scripts may contain DDL/DML).
  StatusOr<sql::QueryResult> ExecuteScript(const std::string& sql);

  /// Registers a trained pipeline under `name` (API-level deployment).
  Status DeployModel(const std::string& name, ml::Pipeline pipeline,
                     const std::string& created_by = "system",
                     const std::string& lineage = "");

  /// Begins an atomic multi-model deployment. Commit takes the engine's
  /// exclusive lock and invalidates the plan cache on success.
  DeployTransaction BeginDeployment();

  /// Commits one rollout state transition: stores the full rollout under
  /// its model name, installs the candidate pipeline as a scoreable
  /// specialization (active states) or retires it (terminal states),
  /// clears the plan cache, and WAL-logs the transition so it survives
  /// crashes and replicates. Takes the exclusive lock. The lifecycle
  /// layer's RolloutManager is the only intended caller; replicas reject
  /// with Redirect (their state arrives via ApplyReplicated).
  Status UpdateRolloutState(const wal::RolloutSnapshot& rollout);

  /// All stored rollouts, active and terminal. Takes the shared lock.
  std::vector<wal::RolloutSnapshot> RolloutStates() const;

  /// Attaches (or, with nullptr, detaches) the feature observer invoked
  /// by every PREDICT kernel with the assembled raw feature matrix. The
  /// observer must outlive the engine once installed; the pointer swap is
  /// atomic, so no lock is taken.
  void SetFeatureObserver(FeatureObserver* observer);

  /// Attaches (or, with nullptr, detaches) the cross-request score
  /// coalescer that single-row PREDICT kernels offer themselves to
  /// (serving-layer micro-batching). Same lifetime/atomicity contract as
  /// SetFeatureObserver; detach before destroying the coalescer.
  void SetScoreCoalescer(ScoreCoalescer* coalescer);

  /// Sets the principal attached to subsequent scoring calls (access
  /// control + audit).
  void SetPrincipal(const std::string& principal);
  const std::string& principal() const { return context_->principal; }

  storage::Database* database() { return &db_; }
  sql::SqlEngine* sql() { return &sql_engine_; }
  ModelRegistry* models() { return &models_; }
  CrossOptimizer* cross_optimizer() { return &cross_optimizer_; }

  /// Switches the cross-optimizer on or off. Takes the exclusive lock and
  /// clears the plan cache, so no statement keeps running a plan that was
  /// optimized under the other setting.
  void set_enable_cross_optimizer(bool on);
  bool enable_cross_optimizer() const {
    return enable_cross_optimizer_.load(std::memory_order_acquire);
  }

  /// Replaces the cross-optimizer's rule switches. Like
  /// set_enable_cross_optimizer, takes the exclusive lock and clears the
  /// plan cache, so cached statements re-plan under the new rules.
  void set_cross_optimizer_options(CrossOptimizer::Options options);

 private:
  /// True when `sql` is a plain SELECT/EXPLAIN — the only statements a
  /// read-only replica serves locally.
  static bool IsReadStatement(const std::string& sql);

  /// True when `sql` must run under the exclusive lock: anything that is
  /// not a plain SELECT/EXPLAIN, plus catalog-view queries (their lazy
  /// refresh drops and recreates tables).
  static bool RequiresExclusive(const std::string& sql);

  /// Builds the adapter recovery and replication use to reach the model
  /// registry (snapshot/restore/replay hooks).
  wal::EngineStateAdapter BuildStateAdapter();

  /// Open's body; caller holds the exclusive lock.
  Status OpenLocked(const std::string& data_dir,
                    const FlockDurabilityConfig& config,
                    uint64_t initial_epoch);

  /// Replay target for streamed records (replica mode).
  wal::WalReplayTarget ReplicaTarget() const;

  /// Body of Execute; caller holds the appropriate lock.
  StatusOr<sql::QueryResult> ExecuteLocked(
      const std::string& sql, const sql::ExecOptions& exec_opts);
  Status RefreshCatalogTablesLocked();

  /// Shared body of UpdateRolloutState, WAL replay, and snapshot restore:
  /// stores the rollout and (de)installs the candidate specialization.
  /// Caller holds the exclusive lock; does not WAL-log.
  Status ApplyRolloutLocked(const wal::RolloutSnapshot& rollout);

  /// Commit-point check for exclusive statements: a statement whose WAL
  /// append failed must not be acknowledged, even though the in-memory
  /// mutation happened (the log is wedged; health() is sticky).
  StatusOr<sql::QueryResult> GuardDurable(
      StatusOr<sql::QueryResult> result);

  storage::Database db_;
  ModelRegistry models_;
  sql::SqlEngine sql_engine_;
  CrossOptimizer cross_optimizer_;
  std::shared_ptr<ScoringContext> context_;
  /// Durable rollout store, keyed by lower-cased model name; mutated only
  /// under the exclusive lock (UpdateRolloutState / replay / restore).
  std::map<std::string, wal::RolloutSnapshot> rollouts_;
  std::unique_ptr<wal::DurabilityManager> durability_;
  /// Read by the plan rewriter under the shared lock; written only under
  /// the exclusive one. Atomic so the unlocked getter is race-free too.
  std::atomic<bool> enable_cross_optimizer_{true};
  /// Replica mode: read-only serving, state applied via replication.
  bool replica_ = false;
  prov::Catalog* replica_catalog_ = nullptr;
  policy::PolicyEngine* replica_policy_ = nullptr;
  wal::EngineStateAdapter replica_adapter_;
  /// Shared: concurrent queries. Exclusive: DDL/DML/catalog refresh/
  /// principal changes. See the class-level locking contract.
  mutable RwMutex engine_mu_;
};

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_FLOCK_ENGINE_H_
