#include "flock/model_registry.h"

#include <algorithm>

#include "common/string_util.h"

namespace flock::flock {

namespace {
std::string Key(const std::string& name) { return ToLower(name); }
}  // namespace

void ModelRegistry::AnalyzeEntry(ModelEntry* entry) {
  entry->ends_with_sigmoid = false;
  entry->tree_node_id = -1;
  // Compile the dense scoring kernel once, at deploy/specialize time;
  // every ScoreBatch thereafter runs slot-resolved over contiguous
  // buffers. Unsupported graph shapes leave a not-ok kernel and scoring
  // falls back to the per-call GraphRuntime.
  entry->kernel = std::make_shared<ml::DenseKernel>(entry->graph);
  entry->training_profile.mean = entry->pipeline.scaler_means();
  entry->training_profile.std = entry->pipeline.scaler_stds();
  const auto& nodes = entry->graph.nodes();
  int out = entry->graph.output_id();
  if (out >= 0 && nodes[static_cast<size_t>(out)].op ==
                      ml::OpType::kSigmoid) {
    entry->ends_with_sigmoid = true;
  }
  for (const ml::GraphNode& node : nodes) {
    if (node.op == ml::OpType::kTreeEnsemble) entry->tree_node_id = node.id;
  }
  entry->used_inputs = entry->graph.UsedInputColumns();
}

void ModelRegistry::RetireDerivedLocked(const std::string& key) {
  const std::string prefix = key + "#";
  for (auto it = specializations_.begin(); it != specializations_.end();) {
    if (StartsWith(it->first, prefix)) {
      it = specializations_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = compressions_.begin(); it != compressions_.end();) {
    if (it->first.model == key || StartsWith(it->first.model, prefix)) {
      it = compressions_.erase(it);
    } else {
      ++it;
    }
  }
}

Status ModelRegistry::Register(const std::string& name,
                               ml::Pipeline pipeline,
                               const std::string& created_by,
                               const std::string& lineage) {
  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->created_by = created_by;
  entry->lineage = lineage;
  FLOCK_ASSIGN_OR_RETURN(entry->graph, pipeline.Compile());
  entry->pipeline = std::move(pipeline);
  AnalyzeEntry(entry.get());

  std::lock_guard<std::mutex> lock(mu_);
  auto& history = models_[Key(name)];
  entry->version = history.empty() ? 1 : history.back()->version + 1;
  if (!history.empty()) {
    // New versions inherit the access policy.
    entry->allowed_principals = history.back()->allowed_principals;
  }
  history.push_back(entry);
  // Invalidate cached specializations of this model.
  RetireDerivedLocked(Key(name));
  audit_log_.push_back(AuditEvent{AuditEvent::Kind::kRegister, name,
                                  created_by, entry->version, 0});
  return Status::OK();
}

Status ModelRegistry::RestoreModel(const std::string& name,
                                   ml::Pipeline pipeline, uint64_t version,
                                   const std::string& created_by,
                                   const std::string& lineage,
                                   std::set<std::string> allowed_principals) {
  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->version = version;
  entry->created_by = created_by;
  entry->lineage = lineage;
  entry->allowed_principals = std::move(allowed_principals);
  FLOCK_ASSIGN_OR_RETURN(entry->graph, pipeline.Compile());
  entry->pipeline = std::move(pipeline);
  AnalyzeEntry(entry.get());

  std::lock_guard<std::mutex> lock(mu_);
  auto& history = models_[Key(name)];
  if (!history.empty() && history.back()->version >= version) {
    return Status::InvalidArgument(
        "restored version " + std::to_string(version) + " of model '" +
        name + "' is not newer than the registry's version " +
        std::to_string(history.back()->version));
  }
  history.push_back(std::move(entry));
  return Status::OK();
}

void ModelRegistry::RestoreAuditLog(std::vector<AuditEvent> events) {
  std::lock_guard<std::mutex> lock(mu_);
  audit_log_ = std::move(events);
}

void ModelRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  models_.clear();
  specializations_.clear();
  compressions_.clear();
  audit_log_.clear();
}

Status ModelRegistry::Drop(const std::string& name,
                           const std::string& principal) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end()) {
    return Status::NotFound("model not found: " + name);
  }
  models_.erase(it);
  RetireDerivedLocked(Key(name));
  audit_log_.push_back(
      AuditEvent{AuditEvent::Kind::kDrop, name, principal, 0, 0});
  return Status::OK();
}

StatusOr<const ModelEntry*> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) {
    return Status::NotFound("model not found: " + name);
  }
  return it->second.back().get();
}

StatusOr<const ModelEntry*> ModelRegistry::GetVersion(
    const std::string& name, uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end()) {
    return Status::NotFound("model not found: " + name);
  }
  for (const auto& entry : it->second) {
    if (entry->version == version) return entry.get();
  }
  return Status::NotFound("model " + name + " has no version " +
                          std::to_string(version));
}

StatusOr<const ModelEntry*> ModelRegistry::GetForScoring(
    const std::string& name, const std::string& principal,
    size_t rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) {
    return Status::NotFound("model not found: " + name);
  }
  const auto& entry = it->second.back();
  if (!entry->allowed_principals.empty() &&
      entry->allowed_principals.count(principal) == 0) {
    audit_log_.push_back(AuditEvent{AuditEvent::Kind::kDenied, name,
                                    principal, entry->version, rows});
    return Status::PermissionDenied("principal '" + principal +
                                    "' may not score model " + name);
  }
  // Scoring is checked once per morsel, so consecutive grants of the same
  // model version to the same principal fold into one event.
  if (!audit_log_.empty()) {
    AuditEvent& last = audit_log_.back();
    if (last.kind == AuditEvent::Kind::kScore && last.model == name &&
        last.principal == principal && last.version == entry->version) {
      last.rows += rows;
      return entry.get();
    }
  }
  audit_log_.push_back(AuditEvent{AuditEvent::Kind::kScore, name,
                                  principal, entry->version, rows});
  return entry.get();
}

Status ModelRegistry::CheckAccess(const std::string& name,
                                  const std::string& principal,
                                  size_t rows) const {
  return GetForScoring(name, principal, rows).status();
}

std::vector<AuditEvent> ModelRegistry::audit_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_log_;
}

Status ModelRegistry::SetAccessControl(const std::string& name,
                                       std::set<std::string> principals) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) {
    return Status::NotFound("model not found: " + name);
  }
  it->second.back()->allowed_principals = std::move(principals);
  return Status::OK();
}

bool ModelRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.count(Key(name)) > 0;
}

std::vector<std::string> ModelRegistry::ListModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [key, history] : models_) {
    if (!history.empty()) out.push_back(history.back()->name);
  }
  return out;
}

uint64_t ModelRegistry::CurrentVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(name));
  if (it == models_.end() || it->second.empty()) return 0;
  return it->second.back()->version;
}

Status ModelRegistry::RegisterSpecialization(const std::string& key,
                                             ModelEntry entry) {
  auto shared = std::make_shared<ModelEntry>(std::move(entry));
  AnalyzeEntry(shared.get());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = specializations_.try_emplace(Key(key), shared);
  if (!inserted) {
    // A replaced entry (a new rollout candidate) invalidates everything
    // derived from the old one.
    RetireDerivedLocked(it->first);
    it->second = std::move(shared);
  }
  audit_log_.push_back(AuditEvent{AuditEvent::Kind::kSpecialize, key,
                                  "optimizer", 0, 0});
  return Status::OK();
}

StatusOr<const ModelEntry*> ModelRegistry::GetSpecialization(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = specializations_.find(Key(key));
  if (it == specializations_.end()) {
    return Status::NotFound("specialization not found: " + key);
  }
  return it->second.get();
}

bool ModelRegistry::HasSpecialization(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return specializations_.count(Key(key)) > 0;
}

void ModelRegistry::RemoveSpecialization(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  specializations_.erase(Key(key));
  RetireDerivedLocked(Key(key));
}

void ModelRegistry::ClearSpecializations() {
  std::lock_guard<std::mutex> lock(mu_);
  specializations_.clear();
  compressions_.clear();
}

size_t ModelRegistry::num_specializations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return specializations_.size();
}

std::optional<CompressionDecision> ModelRegistry::FindCompression(
    const CompressionKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = compressions_.find(key);
  if (it == compressions_.end()) return std::nullopt;
  return it->second;
}

std::string ModelRegistry::StoreCompression(
    CompressionKey key, size_t nodes_removed,
    std::optional<ModelEntry> spec) {
  std::shared_ptr<ModelEntry> shared;
  if (spec.has_value()) {
    shared = std::make_shared<ModelEntry>(std::move(*spec));
    AnalyzeEntry(shared.get());
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Plans for newer data no longer look these decisions up. Their
  // specializations stay: a running statement may still score with one.
  for (auto it = compressions_.begin(); it != compressions_.end();) {
    if (it->first.table == key.table &&
        it->first.table_version < key.table_version) {
      it = compressions_.erase(it);
    } else {
      ++it;
    }
  }
  CompressionDecision decision;
  if (shared != nullptr) {
    decision.specialization = key.model + "#c" + Key(key.table) + "v" +
                              std::to_string(key.table_version) + "r" +
                              std::to_string(next_compression_id_++);
    decision.tree_nodes_removed = nodes_removed;
    shared->name = decision.specialization;
    specializations_[decision.specialization] = std::move(shared);
    audit_log_.push_back(AuditEvent{AuditEvent::Kind::kSpecialize,
                                    decision.specialization, "optimizer",
                                    0, 0});
  }
  compressions_[std::move(key)] = decision;
  return decision.specialization;
}

size_t ModelRegistry::num_compression_decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compressions_.size();
}

}  // namespace flock::flock
