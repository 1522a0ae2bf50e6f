#include "flock/flock_engine.h"

#include <fstream>

#include "common/string_util.h"
#include "obs/trace.h"

namespace flock::flock {

namespace {

const char* ModelTypeName(ml::Pipeline::ModelType type) {
  switch (type) {
    case ml::Pipeline::ModelType::kLinear:
      return "linear";
    case ml::Pipeline::ModelType::kTrees:
      return "trees";
    case ml::Pipeline::ModelType::kNone:
      return "none";
  }
  return "?";
}

const char* AuditKindName(AuditEvent::Kind kind) {
  switch (kind) {
    case AuditEvent::Kind::kRegister:
      return "REGISTER";
    case AuditEvent::Kind::kDrop:
      return "DROP";
    case AuditEvent::Kind::kScore:
      return "SCORE";
    case AuditEvent::Kind::kDenied:
      return "DENIED";
    case AuditEvent::Kind::kSpecialize:
      return "SPECIALIZE";
  }
  return "?";
}

}  // namespace

std::string RolloutCandidateKey(const std::string& model) {
  return ToLower(model) + "#candidate";
}

FlockEngine::FlockEngine(FlockEngineOptions options)
    : sql_engine_(&db_, options.sql),
      cross_optimizer_(&models_, options.cross),
      context_(std::make_shared<ScoringContext>()),
      enable_cross_optimizer_(options.enable_cross_optimizer) {
  RegisterPredictFunctions(sql_engine_.functions(), &models_, context_);

  sql_engine_.set_plan_rewriter([this](sql::PlanPtr* plan) -> Status {
    if (!enable_cross_optimizer()) return Status::OK();
    return cross_optimizer_.Rewrite(plan);
  });

  sql_engine_.set_model_ddl_handler(
      [this](const sql::CreateModelStatement& stmt) -> Status {
        FLOCK_ASSIGN_OR_RETURN(ml::Pipeline pipeline,
                               ml::Pipeline::Deserialize(stmt.definition));
        FLOCK_RETURN_NOT_OK(models_.Register(stmt.model_name,
                                             std::move(pipeline),
                                             context_->principal,
                                             "sql:CREATE MODEL"));
        if (durability_ != nullptr) {
          return durability_->LogModelDeploy(stmt.model_name,
                                             stmt.definition,
                                             context_->principal,
                                             "sql:CREATE MODEL");
        }
        return Status::OK();
      },
      [this](const sql::DropModelStatement& stmt) -> Status {
        FLOCK_RETURN_NOT_OK(
            models_.Drop(stmt.model_name, context_->principal));
        if (durability_ != nullptr) {
          return durability_->LogModelDrop(stmt.model_name,
                                           context_->principal);
        }
        return Status::OK();
      });
}

Status FlockEngine::Open(const std::string& data_dir,
                         FlockDurabilityConfig config) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  if (replica_) {
    return Status::InvalidArgument(
        "engine is a replica; use PromoteToPrimary to make it durable");
  }
  return OpenLocked(data_dir, config, /*initial_epoch=*/1);
}

Status FlockEngine::OpenAsReplica(FlockDurabilityConfig config) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  if (durability_ != nullptr) {
    return Status::InvalidArgument("engine is already durable against " +
                                   durability_->directory());
  }
  if (replica_) {
    return Status::InvalidArgument("engine is already a replica");
  }
  replica_ = true;
  replica_catalog_ = config.catalog;
  replica_policy_ = config.policy;
  replica_adapter_ = BuildStateAdapter();
  return RefreshCatalogTablesLocked();
}

wal::WalReplayTarget FlockEngine::ReplicaTarget() const {
  return wal::WalReplayTarget{const_cast<storage::Database*>(&db_),
                              replica_catalog_, replica_policy_,
                              &replica_adapter_};
}

Status FlockEngine::InstallReplicaSnapshot(
    const wal::SnapshotData& snapshot) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  if (!replica_) {
    return Status::InvalidArgument("engine is not a replica");
  }
  // Wipe everything: re-bootstrap must not layer a snapshot over stale
  // state (RestoreModel demands monotonic versions, and the snapshot's
  // provenance/timeline images are complete replacements).
  for (const std::string& name : db_.ListTables()) {
    FLOCK_RETURN_NOT_OK(db_.DropTable(name));
  }
  models_.Reset();
  rollouts_.clear();
  if (replica_catalog_ != nullptr) {
    FLOCK_RETURN_NOT_OK(replica_catalog_->Restore({}, {}));
  }
  if (replica_policy_ != nullptr) replica_policy_->RestoreTimeline({}, 0);
  FLOCK_RETURN_NOT_OK(
      wal::RestoreSnapshotState(ReplicaTarget(), snapshot));
  sql_engine_.plan_cache()->Clear();
  return RefreshCatalogTablesLocked();
}

Status FlockEngine::ApplyReplicated(const wal::WalRecord& record) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  if (!replica_) {
    return Status::InvalidArgument("engine is not a replica");
  }
  obs::ScopedSpan span("repl.apply");
  FLOCK_RETURN_NOT_OK(wal::ApplyWalRecord(ReplicaTarget(), record));
  switch (record.type) {
    case wal::WalRecordType::kCreateTable:
    case wal::WalRecordType::kDropTable:
    case wal::WalRecordType::kDeployModel:
    case wal::WalRecordType::kDropModel:
      // Mirror the primary's invalidation points: cached plans may hold
      // dead table handles or superseded model specializations.
      sql_engine_.plan_cache()->Clear();
      break;
    default:
      break;
  }
  return Status::OK();
}

Status FlockEngine::PromoteToPrimary(const std::string& data_dir,
                                     FlockDurabilityConfig config,
                                     uint64_t initial_epoch) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  if (!replica_) {
    return Status::InvalidArgument("engine is not a replica");
  }
  replica_ = false;
  replica_catalog_ = nullptr;
  replica_policy_ = nullptr;
  FLOCK_RETURN_NOT_OK(OpenLocked(data_dir, config, initial_epoch));
  // Persist the streamed state under the fenced epoch before the first
  // post-promotion write can be acknowledged: a crash right after
  // promotion must recover to at least the promotion point.
  return durability_->Checkpoint();
}

wal::EngineStateAdapter FlockEngine::BuildStateAdapter() {
  wal::EngineStateAdapter adapter;
  adapter.snapshot_models = [this] {
    std::vector<wal::ModelSnapshot> out;
    for (const std::string& name : models_.ListModels()) {
      auto entry = models_.Get(name);
      if (!entry.ok()) continue;
      wal::ModelSnapshot m;
      m.name = (*entry)->name;
      m.version = (*entry)->version;
      m.pipeline_text = (*entry)->pipeline.Serialize();
      m.created_by = (*entry)->created_by;
      m.lineage = (*entry)->lineage;
      m.allowed_principals.assign((*entry)->allowed_principals.begin(),
                                  (*entry)->allowed_principals.end());
      out.push_back(std::move(m));
    }
    return out;
  };
  adapter.snapshot_audit = [this] {
    std::vector<wal::AuditEventSnapshot> out;
    for (const AuditEvent& event : models_.audit_log()) {
      out.push_back(wal::AuditEventSnapshot{
          static_cast<uint8_t>(event.kind), event.model, event.principal,
          event.version, event.rows});
    }
    return out;
  };
  adapter.restore_model = [this](const wal::ModelSnapshot& m) -> Status {
    FLOCK_ASSIGN_OR_RETURN(ml::Pipeline pipeline,
                           ml::Pipeline::Deserialize(m.pipeline_text));
    return models_.RestoreModel(
        m.name, std::move(pipeline), m.version, m.created_by, m.lineage,
        std::set<std::string>(m.allowed_principals.begin(),
                              m.allowed_principals.end()));
  };
  adapter.restore_audit = [this](std::vector<wal::AuditEventSnapshot> a) {
    std::vector<AuditEvent> events;
    events.reserve(a.size());
    for (const wal::AuditEventSnapshot& e : a) {
      events.push_back(AuditEvent{static_cast<AuditEvent::Kind>(e.kind),
                                  e.model, e.principal, e.version,
                                  static_cast<size_t>(e.rows)});
    }
    models_.RestoreAuditLog(std::move(events));
  };
  adapter.replay_deploy = [this](const std::string& name,
                                 const std::string& pipeline_text,
                                 const std::string& created_by,
                                 const std::string& lineage) -> Status {
    FLOCK_ASSIGN_OR_RETURN(ml::Pipeline pipeline,
                           ml::Pipeline::Deserialize(pipeline_text));
    return models_.Register(name, std::move(pipeline), created_by,
                            lineage);
  };
  adapter.replay_drop = [this](const std::string& name,
                               const std::string& principal) -> Status {
    return models_.Drop(name, principal);
  };
  adapter.snapshot_rollouts = [this] {
    std::vector<wal::RolloutSnapshot> out;
    out.reserve(rollouts_.size());
    for (const auto& [key, rollout] : rollouts_) out.push_back(rollout);
    return out;
  };
  // Restore and replay share one body: every rollout record carries the
  // complete post-transition state, so applying the latest record (or the
  // snapshot image) alone reproduces it. Callers hold the exclusive lock.
  adapter.restore_rollout =
      [this](const wal::RolloutSnapshot& rollout) -> Status {
    return ApplyRolloutLocked(rollout);
  };
  adapter.replay_rollout =
      [this](const wal::RolloutSnapshot& rollout) -> Status {
    return ApplyRolloutLocked(rollout);
  };
  return adapter;
}

Status FlockEngine::OpenLocked(const std::string& data_dir,
                               const FlockDurabilityConfig& config,
                               uint64_t initial_epoch) {
  if (durability_ != nullptr) {
    return Status::InvalidArgument("engine is already durable against " +
                                   durability_->directory());
  }

  wal::DurabilityOptions options;
  options.fsync_policy = config.fsync_policy;
  options.group_commit_interval_ms = config.group_commit_interval_ms;
  options.initial_epoch = initial_epoch;
  // Derived catalog views are rebuilt from the registry on demand; they
  // must not be logged or snapshotted.
  options.skip_tables = {"flock_models", "flock_audit"};

  FLOCK_ASSIGN_OR_RETURN(
      durability_,
      wal::DurabilityManager::Open(data_dir, &db_, config.catalog,
                                   config.policy, BuildStateAdapter(),
                                   std::move(options)));
  // Recovery mutated tables and models behind the SQL layer's back; any
  // cached plan or stale catalog view would serve pre-recovery state.
  sql_engine_.plan_cache()->Clear();
  return RefreshCatalogTablesLocked();
}

Status FlockEngine::Checkpoint() {
  std::unique_lock<RwMutex> lock(engine_mu_);
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "engine has no data directory (call Open first)");
  }
  FLOCK_RETURN_NOT_OK(durability_->Checkpoint());
  // Persist the slow-query log next to the checkpoint so outliers
  // survive restarts for postmortems. Best-effort: the log is derived
  // observability state, so a write failure must not fail the
  // checkpoint.
  std::ofstream out(durability_->directory() + "/slowlog.json",
                    std::ios::trunc);
  if (out.is_open()) out << sql_engine_.slow_log()->ToJson() << "\n";
  return Status::OK();
}

bool FlockEngine::IsReadStatement(const std::string& sql) {
  std::string lowered = ToLower(Trim(sql));
  return StartsWith(lowered, "select") || StartsWith(lowered, "explain");
}

bool FlockEngine::RequiresExclusive(const std::string& sql) {
  std::string lowered = ToLower(Trim(sql));
  // Catalog-view queries rebuild flock_models/flock_audit first (DDL).
  if (lowered.find("flock_models") != std::string::npos ||
      lowered.find("flock_audit") != std::string::npos) {
    return true;
  }
  // Only plain reads may share the lock; everything else mutates state.
  return !(StartsWith(lowered, "select") || StartsWith(lowered, "explain"));
}

StatusOr<sql::QueryResult> FlockEngine::Execute(
    const std::string& sql, const sql::ExecOptions& exec_opts) {
  if (replica_ && !IsReadStatement(sql)) {
    return Status::Redirect(
        "replica is read-only; send writes and DDL to the primary");
  }
  if (RequiresExclusive(sql)) {
    std::unique_lock<RwMutex> lock(engine_mu_);
    return GuardDurable(ExecuteLocked(sql, exec_opts));
  }
  std::shared_lock<RwMutex> lock(engine_mu_);
  return sql_engine_.Execute(sql, exec_opts);
}

StatusOr<sql::QueryResult> FlockEngine::GuardDurable(
    StatusOr<sql::QueryResult> result) {
  if (durability_ != nullptr) {
    FLOCK_RETURN_NOT_OK(durability_->health());
  }
  return result;
}

StatusOr<sql::QueryResult> FlockEngine::ExecuteAs(
    const std::string& sql, const std::string& principal,
    const sql::ExecOptions& exec_opts) {
  if (replica_ && !IsReadStatement(sql)) {
    return Status::Redirect(
        "replica is read-only; send writes and DDL to the primary");
  }
  // The scoring context is shared by every execution, so swapping the
  // principal demands exclusivity even for reads.
  std::unique_lock<RwMutex> lock(engine_mu_);
  std::string saved = context_->principal;
  context_->principal = principal;
  auto result = ExecuteLocked(sql, exec_opts);
  context_->principal = saved;
  return GuardDurable(std::move(result));
}

StatusOr<sql::QueryResult> FlockEngine::ExecuteLocked(
    const std::string& sql, const sql::ExecOptions& exec_opts) {
  std::string lowered = ToLower(sql);
  if (lowered.find("flock_models") != std::string::npos ||
      lowered.find("flock_audit") != std::string::npos) {
    FLOCK_RETURN_NOT_OK(RefreshCatalogTablesLocked());
  }
  return sql_engine_.Execute(sql, exec_opts);
}

Status FlockEngine::RefreshCatalogTables() {
  std::unique_lock<RwMutex> lock(engine_mu_);
  return RefreshCatalogTablesLocked();
}

Status FlockEngine::RefreshCatalogTablesLocked() {
  // The catalog tables are dropped and recreated, so any cached plan
  // scanning them holds a dead table handle.
  sql_engine_.plan_cache()->Clear();
  using storage::ColumnDef;
  using storage::DataType;
  using storage::Schema;
  using storage::Value;

  // flock_models: one row per user-visible model (latest version).
  if (db_.HasTable("flock_models")) {
    FLOCK_RETURN_NOT_OK(db_.DropTable("flock_models"));
  }
  Schema models_schema({ColumnDef{"name", DataType::kString, false},
                        ColumnDef{"version", DataType::kInt64, false},
                        ColumnDef{"created_by", DataType::kString, false},
                        ColumnDef{"lineage", DataType::kString, true},
                        ColumnDef{"model_type", DataType::kString, false},
                        ColumnDef{"num_inputs", DataType::kInt64, false},
                        ColumnDef{"tree_nodes", DataType::kInt64, false},
                        ColumnDef{"restricted", DataType::kBool, false}});
  FLOCK_RETURN_NOT_OK(db_.CreateTable("flock_models", models_schema));
  {
    FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table,
                           db_.GetTable("flock_models"));
    storage::RecordBatch rows(models_schema);
    for (const std::string& name : models_.ListModels()) {
      FLOCK_ASSIGN_OR_RETURN(const ModelEntry* entry, models_.Get(name));
      FLOCK_RETURN_NOT_OK(rows.AppendRow(
          {Value::String(entry->name),
           Value::Int(static_cast<int64_t>(entry->version)),
           Value::String(entry->created_by), Value::String(entry->lineage),
           Value::String(ModelTypeName(entry->pipeline.model_type())),
           Value::Int(static_cast<int64_t>(entry->pipeline.num_inputs())),
           Value::Int(static_cast<int64_t>(entry->graph.TotalTreeNodes())),
           Value::Bool(!entry->allowed_principals.empty())}));
    }
    FLOCK_RETURN_NOT_OK(table->AppendBatch(rows));
  }

  // flock_audit: the registry's audit trail.
  if (db_.HasTable("flock_audit")) {
    FLOCK_RETURN_NOT_OK(db_.DropTable("flock_audit"));
  }
  Schema audit_schema({ColumnDef{"seq", DataType::kInt64, false},
                       ColumnDef{"kind", DataType::kString, false},
                       ColumnDef{"model", DataType::kString, false},
                       ColumnDef{"principal", DataType::kString, false},
                       ColumnDef{"version", DataType::kInt64, false},
                       ColumnDef{"rows_scored", DataType::kInt64, false}});
  FLOCK_RETURN_NOT_OK(db_.CreateTable("flock_audit", audit_schema));
  {
    FLOCK_ASSIGN_OR_RETURN(storage::TablePtr table,
                           db_.GetTable("flock_audit"));
    storage::RecordBatch rows(audit_schema);
    int64_t seq = 0;
    for (const AuditEvent& event : models_.audit_log()) {
      FLOCK_RETURN_NOT_OK(rows.AppendRow(
          {Value::Int(seq++), Value::String(AuditKindName(event.kind)),
           Value::String(event.model), Value::String(event.principal),
           Value::Int(static_cast<int64_t>(event.version)),
           Value::Int(static_cast<int64_t>(event.rows))}));
    }
    FLOCK_RETURN_NOT_OK(table->AppendBatch(rows));
  }
  return Status::OK();
}

StatusOr<sql::QueryResult> FlockEngine::ExecuteScript(
    const std::string& sql) {
  if (replica_) {
    // Scripts may interleave DDL/DML; a replica rejects them wholesale
    // rather than partially applying the read-only prefix.
    return Status::Redirect(
        "replica is read-only; send scripts to the primary");
  }
  std::unique_lock<RwMutex> lock(engine_mu_);
  return GuardDurable(sql_engine_.ExecuteScript(sql));
}

Status FlockEngine::DeployModel(const std::string& name,
                                ml::Pipeline pipeline,
                                const std::string& created_by,
                                const std::string& lineage) {
  if (replica_) {
    return Status::Redirect(
        "replica is read-only; deploy models on the primary");
  }
  std::unique_lock<RwMutex> lock(engine_mu_);
  // Redeploys supersede cross-optimizer specializations referenced by
  // cached plans; drop them all.
  sql_engine_.plan_cache()->Clear();
  std::string pipeline_text;
  if (durability_ != nullptr) pipeline_text = pipeline.Serialize();
  FLOCK_RETURN_NOT_OK(
      models_.Register(name, std::move(pipeline), created_by, lineage));
  if (durability_ != nullptr) {
    return durability_->LogModelDeploy(name, pipeline_text, created_by,
                                       lineage);
  }
  return Status::OK();
}

DeployTransaction FlockEngine::BeginDeployment() {
  return DeployTransaction(
      &models_, &engine_mu_,
      [this](const std::vector<CommittedDeployOp>& committed) {
        sql_engine_.plan_cache()->Clear();
        if (durability_ == nullptr) return;
        for (const CommittedDeployOp& op : committed) {
          if (op.is_drop) {
            (void)durability_->LogModelDrop(op.name, op.created_by);
          } else {
            (void)durability_->LogModelDeploy(op.name, op.pipeline_text,
                                              op.created_by, op.lineage);
          }
        }
      },
      [this]() { sql_engine_.plan_cache()->Clear(); });
}

void FlockEngine::SetPrincipal(const std::string& principal) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  context_->principal = principal;
}

void FlockEngine::set_enable_cross_optimizer(bool on) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  enable_cross_optimizer_.store(on, std::memory_order_release);
  sql_engine_.plan_cache()->Clear();
}

void FlockEngine::set_cross_optimizer_options(
    CrossOptimizer::Options options) {
  std::unique_lock<RwMutex> lock(engine_mu_);
  cross_optimizer_.set_options(options);
  sql_engine_.plan_cache()->Clear();
}

void FlockEngine::SetFeatureObserver(FeatureObserver* observer) {
  context_->observer.store(observer, std::memory_order_release);
}

void FlockEngine::SetScoreCoalescer(ScoreCoalescer* coalescer) {
  context_->coalescer.store(coalescer, std::memory_order_release);
}

Status FlockEngine::ApplyRolloutLocked(
    const wal::RolloutSnapshot& rollout) {
  const std::string spec_key = RolloutCandidateKey(rollout.model);
  if (rollout.state <= 2) {
    // staged / shadow / canary: the candidate must be scoreable. Install
    // it as a specialization of the live model — not a registry version —
    // so plain PREDICT(model, ...) still resolves to the live entry and
    // only rewritten candidate traffic reaches it.
    FLOCK_ASSIGN_OR_RETURN(
        ml::Pipeline pipeline,
        ml::Pipeline::Deserialize(rollout.candidate_pipeline_text));
    ModelEntry entry;
    entry.name = spec_key;
    entry.base_name = rollout.model;
    FLOCK_ASSIGN_OR_RETURN(entry.graph, pipeline.Compile());
    entry.pipeline = std::move(pipeline);
    FLOCK_RETURN_NOT_OK(
        models_.RegisterSpecialization(spec_key, std::move(entry)));
  } else {
    // live / rolled_back: candidate traffic stops. (Promotion's Register
    // already erased the spec; rollback retires it here.)
    models_.RemoveSpecialization(spec_key);
  }
  rollouts_[ToLower(rollout.model)] = rollout;
  // Cached plans may reference the superseded (or freshly installed)
  // candidate specialization.
  sql_engine_.plan_cache()->Clear();
  return Status::OK();
}

Status FlockEngine::UpdateRolloutState(const wal::RolloutSnapshot& rollout) {
  if (replica_) {
    return Status::Redirect(
        "replica is read-only; manage rollouts on the primary");
  }
  std::unique_lock<RwMutex> lock(engine_mu_);
  FLOCK_RETURN_NOT_OK(ApplyRolloutLocked(rollout));
  if (durability_ != nullptr) {
    return durability_->LogRolloutState(rollout);
  }
  return Status::OK();
}

std::vector<wal::RolloutSnapshot> FlockEngine::RolloutStates() const {
  std::shared_lock<RwMutex> lock(engine_mu_);
  std::vector<wal::RolloutSnapshot> out;
  out.reserve(rollouts_.size());
  for (const auto& [key, rollout] : rollouts_) out.push_back(rollout);
  return out;
}

}  // namespace flock::flock
