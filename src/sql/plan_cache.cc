#include "sql/plan_cache.h"

#include <cctype>

namespace flock::sql {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_string) {
      out += c;
      if (c == '\'') {
        // '' inside a literal is an escaped quote, not a terminator:
        // emit both characters and stay in the string.
        if (i + 1 < sql.size() && sql[i + 1] == '\'') {
          out += '\'';
          ++i;
        } else {
          in_string = false;
        }
      }
      continue;
    }
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      // A '--' comment runs to end of line and separates tokens like
      // whitespace; swallowing it (rather than copying it) keeps
      // `SELECT 1 -- note` and `SELECT 1` on one cache entry and stops
      // an apostrophe inside the comment from toggling string state.
      while (i < sql.size() && sql[i] != '\n') ++i;
      pending_space = true;
      continue;
    }
    if (c == '\'') {
      if (pending_space && !out.empty()) out += ' ';
      pending_space = false;
      out += c;
      in_string = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  // Drop a trailing statement terminator (and any space before it).
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

PlanPtr PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  for (const auto& [table, version] : it->second->pins) {
    if (table->current_version() != version) {
      // The plan was specialized on statistics the table no longer has.
      lru_.erase(it->second);
      index_.erase(it);
      ++stats_.invalidations;
      ++stats_.misses;
      return nullptr;
    }
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->plan->Clone();
}

namespace {

void CollectPins(const LogicalPlan& plan,
                 std::vector<std::pair<storage::TablePtr, uint64_t>>* pins) {
  if (plan.kind == PlanKind::kScan && plan.stats_version.has_value() &&
      plan.table != nullptr) {
    pins->emplace_back(plan.table, *plan.stats_version);
  }
  for (const auto& child : plan.children) CollectPins(*child, pins);
}

}  // namespace

void PlanCache::Insert(const std::string& key, PlanPtr plan) {
  if (capacity_ == 0 || plan == nullptr) return;
  std::vector<std::pair<storage::TablePtr, uint64_t>> pins;
  CollectPins(*plan, &pins);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    it->second->pins = std::move(pins);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.invalidations;
  }
  lru_.push_front(Entry{key, std::move(plan), std::move(pins)});
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  index_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace flock::sql
