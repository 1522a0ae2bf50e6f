#ifndef FLOCK_SQL_PLAN_CACHE_H_
#define FLOCK_SQL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/logical_plan.h"

namespace flock::sql {

/// Normalizes a SQL statement into a plan-cache key: whitespace runs
/// collapse to one space, `--` comments are stripped (they separate
/// tokens like whitespace), everything outside single-quoted string
/// literals is lower-cased, and a trailing ';' is dropped. A doubled
/// quote (`''`) inside a literal is the escaped-quote idiom and does not
/// terminate the string. Two statements that differ only in case,
/// layout or comments therefore share one cache entry:
///
///   "SELECT  id FROM t;"        ->  "select id from t"
///   "select id\nfrom T"         ->  "select id from t"
///   "SELECT id FROM t -- hot"   ->  "select id from t"
///   "SELECT 'don''t' FROM t"    ->  "select 'don''t' from t"
std::string NormalizeSql(const std::string& sql);

/// Cumulative counters, readable while the cache is in use.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  /// Entries dropped by Clear(), by LRU eviction, or at lookup because
  /// a table their plan was specialized on has changed.
  uint64_t invalidations = 0;

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe LRU cache of optimized logical plans keyed by normalized
/// SQL text — the prepared-statement path of the serving layer. A hit
/// skips parse/plan/optimize entirely; the caller still lowers the
/// (cloned) plan to a fresh physical tree per execution, so concurrent
/// executions of the same cached statement never share operator state.
///
/// Invalidation contract: cached plans embed resolved storage::TablePtr
/// handles and (after cross-optimization) specialized model names, so any
/// DDL — CREATE/DROP TABLE, CREATE/DROP MODEL — any model redeploy and
/// any change to the planner's settings must Clear() the cache.
/// SqlEngine and FlockEngine enforce this; see SqlEngine::Execute and
/// FlockEngine's locking contract.
///
/// Plain DML clears nothing: scans read the live table through the
/// resolved handle and prune segments at execution time. The exception is
/// a plan that embeds a table's statistics, as a model specialization
/// compressed to the value ranges the table held at plan time does. Such
/// a plan marks its scan with `LogicalPlan::stats_version`; Insert
/// records those (table, version) pins and Lookup drops the entry, as a
/// miss, once any pinned table has moved to another version. Plans
/// without pins survive DML.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns a private clone of the cached plan for `key`, or nullptr on
  /// miss. Counts a hit/miss and refreshes LRU order.
  PlanPtr Lookup(const std::string& key);

  /// Inserts (or replaces) the plan for `key`, evicting the least
  /// recently used entry when at capacity. The cache takes ownership;
  /// callers keep executing their own copy.
  void Insert(const std::string& key, PlanPtr plan);

  /// Drops every entry (DDL / model-redeploy invalidation).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    PlanPtr plan;
    /// Tables whose statistics the plan embeds, at the version it read.
    std::vector<std::pair<storage::TablePtr, uint64_t>> pins;
  };
  using LruList = std::list<Entry>;

  size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PLAN_CACHE_H_
