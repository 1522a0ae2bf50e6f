#include "flock/deployment.h"

namespace flock::flock {

void DeployTransaction::StageRegister(std::string name,
                                      ml::Pipeline pipeline,
                                      std::string created_by,
                                      std::string lineage) {
  Operation op;
  op.kind = Operation::Kind::kRegister;
  op.name = std::move(name);
  op.pipeline = std::move(pipeline);
  op.created_by = std::move(created_by);
  op.lineage = std::move(lineage);
  operations_.push_back(std::move(op));
}

void DeployTransaction::StageDrop(std::string name) {
  Operation op;
  op.kind = Operation::Kind::kDrop;
  op.name = std::move(name);
  operations_.push_back(std::move(op));
}

Status DeployTransaction::Commit() {
  if (engine_mu_ != nullptr) {
    std::unique_lock<RwMutex> lock(*engine_mu_);
    return CommitLocked();
  }
  return CommitLocked();
}

Status DeployTransaction::CommitLocked() {
  // Undo log: for each applied op, how to reverse it.
  struct Undo {
    enum class Kind { kDropNew, kRestore } kind;
    std::string name;
    ml::Pipeline pipeline;  // for kRestore
    std::string created_by, lineage;
  };
  std::vector<Undo> undo_log;

  Status failure = Status::OK();
  for (const Operation& op : operations_) {
    // Snapshot the current version (if any) for rollback.
    ml::Pipeline prior;
    std::string prior_creator, prior_lineage;
    bool had_prior = false;
    auto existing = registry_->Get(op.name);
    if (existing.ok()) {
      prior = (*existing)->pipeline;
      prior_creator = (*existing)->created_by;
      prior_lineage = (*existing)->lineage;
      had_prior = true;
    }

    if (op.kind == Operation::Kind::kRegister) {
      Status st = registry_->Register(op.name, op.pipeline, op.created_by,
                                      op.lineage);
      if (!st.ok()) {
        failure = st;
        break;
      }
      Undo undo;
      if (had_prior) {
        undo.kind = Undo::Kind::kRestore;
        undo.pipeline = std::move(prior);
        undo.created_by = prior_creator;
        undo.lineage = prior_lineage;
      } else {
        undo.kind = Undo::Kind::kDropNew;
      }
      undo.name = op.name;
      undo_log.push_back(std::move(undo));
    } else {
      Status st = registry_->Drop(op.name);
      if (!st.ok()) {
        failure = st;
        break;
      }
      Undo undo;
      undo.kind = Undo::Kind::kRestore;
      undo.name = op.name;
      undo.pipeline = std::move(prior);
      undo.created_by = prior_creator;
      undo.lineage = prior_lineage;
      undo_log.push_back(std::move(undo));
    }
  }

  if (failure.ok()) {
    if (on_commit_) {
      std::vector<CommittedDeployOp> committed;
      committed.reserve(operations_.size());
      for (const Operation& op : operations_) {
        CommittedDeployOp c;
        c.is_drop = op.kind == Operation::Kind::kDrop;
        c.name = op.name;
        if (c.is_drop) {
          c.created_by = "system";  // Drop's default principal
        } else {
          c.pipeline_text = op.pipeline.Serialize();
          c.created_by = op.created_by;
          c.lineage = op.lineage;
        }
        committed.push_back(std::move(c));
      }
      on_commit_(committed);
    }
    operations_.clear();
    return Status::OK();
  }
  // Roll back in reverse order.
  for (auto it = undo_log.rbegin(); it != undo_log.rend(); ++it) {
    if (it->kind == Undo::Kind::kDropNew) {
      (void)registry_->Drop(it->name, "deploy-rollback");
    } else {
      (void)registry_->Register(it->name, it->pipeline, it->created_by,
                                it->lineage);
    }
  }
  if (!undo_log.empty() && on_rollback_) on_rollback_();
  operations_.clear();
  return Status::Aborted("deployment rolled back: " + failure.ToString());
}

}  // namespace flock::flock
