#ifndef FLOCK_FLOCK_MODEL_REGISTRY_H_
#define FLOCK_FLOCK_MODEL_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "ml/dense_kernel.h"
#include "ml/graph.h"
#include "ml/pipeline.h"

namespace flock::flock {

/// Per-input training-time feature statistics, captured from the fitted
/// pipeline when the model is registered. The lifecycle drift monitor
/// compares live feature distributions against these; empty when the
/// pipeline has no scaler (nothing to compare against).
struct TrainingProfile {
  std::vector<double> mean;  // one per raw input
  std::vector<double> std;
  bool empty() const { return mean.empty(); }
};

/// A deployed model: the paper's "models as first-class data types in a
/// DBMS" (§4.1). Carries the inference pipeline, its compiled graph, and
/// the enterprise metadata (version, lineage pointer, access control) that
/// §4.2 argues models must have "on par with other high-value data".
struct ModelEntry {
  std::string name;
  uint64_t version = 1;
  ml::Pipeline pipeline;
  ml::ModelGraph graph;  // compiled & finalized

  // --- governance ---
  std::string created_by;
  /// Free-form lineage pointer (provenance catalog entity id, training
  /// data snapshot, script hash, ...).
  std::string lineage;
  /// Principals allowed to score; empty = public.
  std::set<std::string> allowed_principals;

  /// For optimizer specializations: the user-visible model this variant was
  /// derived from. Access control and audit are enforced against it.
  std::string base_name;

  /// For optimizer specializations: maps graph input column -> index of the
  /// original pipeline input it came from (empty = identity). Feature
  /// assembly uses this to pick the right encoding per argument.
  std::vector<size_t> input_mapping;

  // --- precomputed scoring metadata ---
  /// True when the graph ends in Sigmoid (strippable for predicate
  /// push-up).
  bool ends_with_sigmoid = false;
  /// Index of the TreeEnsemble node, or -1.
  int tree_node_id = -1;
  /// Compiled dense-slot scoring kernel (built by AnalyzeEntry; shared and
  /// immutable, so entry copies stay cheap). It carries the tree layout
  /// and the threshold suffix bounds. Null or not-ok kernels fall back to
  /// GraphRuntime in flock::ScoreBatch / ScoreThresholdBatch.
  std::shared_ptr<const ml::DenseKernel> kernel;
  /// Training-time feature statistics (from the pipeline's scaler) for
  /// drift monitoring.
  TrainingProfile training_profile;
  /// Graph inputs that can influence the output (FeaturePruning drops
  /// the others).
  std::vector<bool> used_inputs;
};

/// Exact identity of one ModelCompression decision: the entry being
/// compressed, the table whose statistics bounded its inputs, and the bit
/// patterns of every range bound. The decision itself depends only on the
/// entry and the ranges; the table and version tie its lifetime to the
/// data it was derived from.
struct CompressionKey {
  /// Registry key (lower-case) of the entry compressed: a model or one
  /// of its specializations.
  std::string model;
  std::string table;
  uint64_t table_version = 0;
  /// Per graph input: 0 when the range is unknown, else 1 followed by
  /// the bit patterns of its min and max.
  std::vector<uint64_t> bounds;

  auto operator<=>(const CompressionKey&) const = default;
};

/// A memoized ModelCompression decision: the specialization compression
/// produced and the tree nodes it removed, or "no gain" (empty name).
struct CompressionDecision {
  std::string specialization;
  size_t tree_nodes_removed = 0;
};

/// One entry in the registry's audit trail.
struct AuditEvent {
  enum class Kind { kRegister, kDrop, kScore, kDenied, kSpecialize };
  Kind kind;
  std::string model;
  std::string principal;
  uint64_t version = 0;
  size_t rows = 0;
};

/// Thread-safe model catalog with versioning, access control, and an audit
/// log. Also stores the cross-optimizer's internal model specializations
/// (pruned/compressed variants), which are keyed by derived names and are
/// not user-visible.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers (or re-versions) `name`. The pipeline is compiled and
  /// validated here; an invalid pipeline never enters the catalog.
  Status Register(const std::string& name, ml::Pipeline pipeline,
                  const std::string& created_by = "system",
                  const std::string& lineage = "");

  Status Drop(const std::string& name,
              const std::string& principal = "system");

  /// Recovery: re-creates a model at its exact snapshotted version and
  /// access list, without emitting an audit event (restore reconstructs
  /// state, it does not re-deploy). The version must be newer than any
  /// already present so snapshot + WAL replay compose in order.
  Status RestoreModel(const std::string& name, ml::Pipeline pipeline,
                      uint64_t version, const std::string& created_by,
                      const std::string& lineage,
                      std::set<std::string> allowed_principals);

  /// Recovery: replaces the audit log with a snapshotted one.
  void RestoreAuditLog(std::vector<AuditEvent> events);

  /// Drops everything — models, specializations, audit trail. Replica
  /// re-bootstrap wipes the registry before installing a fresh snapshot
  /// (RestoreModel demands monotonic versions, so stale entries would
  /// poison the restore).
  void Reset();

  /// Latest version. NotFound if absent.
  StatusOr<const ModelEntry*> Get(const std::string& name) const;

  /// Specific version (versions are 1-based and monotonic).
  StatusOr<const ModelEntry*> GetVersion(const std::string& name,
                                         uint64_t version) const;

  /// Get + ACL check + audit. PermissionDenied when `principal` lacks
  /// access. A grant extends the previous event when that one is a grant
  /// of the same model version to the same principal (its `rows` sum), so
  /// a many-morsel scan leaves one event; denials are always appended.
  StatusOr<const ModelEntry*> GetForScoring(const std::string& name,
                                            const std::string& principal,
                                            size_t rows) const;

  /// ACL check + audit without returning the entry (used when scoring goes
  /// through a specialization derived from `name`).
  Status CheckAccess(const std::string& name, const std::string& principal,
                     size_t rows) const;

  /// Restricts scoring on `name` to `principals`.
  Status SetAccessControl(const std::string& name,
                          std::set<std::string> principals);

  bool Contains(const std::string& name) const;
  std::vector<std::string> ListModels() const;
  uint64_t CurrentVersion(const std::string& name) const;

  /// Registers an optimizer-internal specialization under a derived key.
  Status RegisterSpecialization(const std::string& key, ModelEntry entry);
  StatusOr<const ModelEntry*> GetSpecialization(
      const std::string& key) const;
  bool HasSpecialization(const std::string& key) const;
  /// Removes one specialization (no-op if absent), together with every
  /// specialization and compression decision derived from it. Lifecycle
  /// rollouts install candidates as specializations and retire them here.
  void RemoveSpecialization(const std::string& key);
  /// Drops every specialization and every compression decision.
  void ClearSpecializations();
  size_t num_specializations() const;

  /// The memoized ModelCompression decision for `key`, if one is stored.
  std::optional<CompressionDecision> FindCompression(
      const CompressionKey& key) const;
  /// Stores the decision for `key`. With `spec`, compression removed
  /// `nodes_removed` tree nodes: `spec` is registered as a specialization
  /// under a fresh name, which is returned. Without it the decision is
  /// "no gain" and the name is empty. Decisions derived from an older
  /// version of the same table are dropped. A redeploy or drop of the
  /// model, or retiring the specialization compressed, drops the
  /// decisions about it.
  std::string StoreCompression(CompressionKey key, size_t nodes_removed,
                               std::optional<ModelEntry> spec);
  size_t num_compression_decisions() const;

  /// A copy of the audit trail, taken under the registry lock.
  std::vector<AuditEvent> audit_log() const;

  /// Fills `entry`'s precomputed scoring metadata (sigmoid detection, tree
  /// node index, compiled kernel, training profile). Exposed for the
  /// optimizer, which builds specialized entries by hand.
  static void AnalyzeEntry(ModelEntry* entry);

 private:
  /// Erases the specializations derived from `key` (`key#...`) and the
  /// compression decisions about `key` or any of them. Caller holds mu_.
  void RetireDerivedLocked(const std::string& key);

  mutable std::mutex mu_;
  // name -> version history (back() is latest).
  std::map<std::string, std::vector<std::shared_ptr<ModelEntry>>> models_;
  std::map<std::string, std::shared_ptr<ModelEntry>> specializations_;
  std::map<CompressionKey, CompressionDecision> compressions_;
  /// Suffix of the next compressed specialization's name.
  uint64_t next_compression_id_ = 1;
  mutable std::vector<AuditEvent> audit_log_;
};

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_MODEL_REGISTRY_H_
