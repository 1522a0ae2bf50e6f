#ifndef FLOCK_FLOCK_DEPLOYMENT_H_
#define FLOCK_FLOCK_DEPLOYMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rw_mutex.h"
#include "common/status.h"
#include "flock/model_registry.h"

namespace flock::flock {

/// One operation of a committed deployment, reported to the commit
/// callback — the engine mirrors these into the write-ahead log.
struct CommittedDeployOp {
  bool is_drop = false;
  std::string name;
  std::string pipeline_text;  // serialized pipeline; empty for drops
  std::string created_by;     // principal for drops
  std::string lineage;
};

/// Atomic multi-model deployment (paper §4.1: "assemblies of models and
/// preprocessing steps should be updated atomically", enabled by treating
/// models as first-class data that database transactions can cover).
///
/// Stage any number of registrations/drops, then Commit: either every
/// operation applies, or — on the first failure — all already-applied
/// operations are rolled back (re-registering the prior version or
/// dropping the newly created model) and the registry is left unchanged.
class DeployTransaction {
 public:
  /// `engine_mu` (optional) is held exclusively for the duration of
  /// Commit so no query scores mid-transaction; `on_commit` (optional)
  /// runs after a successful commit while the lock is still held —
  /// FlockEngine uses it to invalidate the plan cache. `on_rollback`
  /// (optional) runs — also under the lock — after a failed commit has
  /// undone applied operations: the undo re-registers prior versions,
  /// which erases their derived specializations, so cached plans must be
  /// invalidated on this path too.
  explicit DeployTransaction(
      ModelRegistry* registry, RwMutex* engine_mu = nullptr,
      std::function<void(const std::vector<CommittedDeployOp>&)> on_commit =
          {},
      std::function<void()> on_rollback = {})
      : registry_(registry),
        engine_mu_(engine_mu),
        on_commit_(std::move(on_commit)),
        on_rollback_(std::move(on_rollback)) {}

  /// Stages a model (re)deployment.
  void StageRegister(std::string name, ml::Pipeline pipeline,
                     std::string created_by = "system",
                     std::string lineage = "");

  /// Stages a model removal.
  void StageDrop(std::string name);

  /// Applies all staged operations atomically. On failure returns the
  /// first error and restores the registry to its pre-transaction state.
  Status Commit();

  /// Discards staged operations.
  void Abort() { operations_.clear(); }

  size_t staged() const { return operations_.size(); }

 private:
  struct Operation {
    enum class Kind { kRegister, kDrop };
    Kind kind;
    std::string name;
    ml::Pipeline pipeline;
    std::string created_by;
    std::string lineage;
  };

  Status CommitLocked();

  ModelRegistry* registry_;
  RwMutex* engine_mu_ = nullptr;
  std::function<void(const std::vector<CommittedDeployOp>&)> on_commit_;
  std::function<void()> on_rollback_;
  std::vector<Operation> operations_;
};

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_DEPLOYMENT_H_
