#include "sql/logical_plan.h"

#include <sstream>

namespace flock::sql {

PlanPtr LogicalPlan::Clone() const {
  auto out = std::make_unique<LogicalPlan>();
  out->kind = kind;
  out->table_name = table_name;
  out->table = table;
  out->projection = projection;
  out->stats_version = stats_version;
  out->predicate = predicate ? predicate->Clone() : nullptr;
  out->exprs.reserve(exprs.size());
  for (const auto& e : exprs) out->exprs.push_back(e->Clone());
  out->names = names;
  out->join_type = join_type;
  out->join_condition = join_condition ? join_condition->Clone() : nullptr;
  out->group_by.reserve(group_by.size());
  for (const auto& e : group_by) out->group_by.push_back(e->Clone());
  out->aggregates.reserve(aggregates.size());
  for (const auto& e : aggregates) out->aggregates.push_back(e->Clone());
  out->agg_names = agg_names;
  out->sort_keys.reserve(sort_keys.size());
  for (const auto& k : sort_keys) {
    out->sort_keys.push_back(SortKey{k.expr->Clone(), k.ascending});
  }
  out->limit = limit;
  out->offset = offset;
  out->output_schema = output_schema;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

std::string LogicalPlan::ToString(int indent) const {
  std::ostringstream out;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  out << pad;
  switch (kind) {
    case PlanKind::kScan:
      out << "Scan(" << table_name;
      if (!projection.empty()) {
        out << " cols=[";
        for (size_t i = 0; i < projection.size(); ++i) {
          if (i > 0) out << ",";
          out << table->schema().column(projection[i]).name;
        }
        out << "]";
      }
      out << ")";
      break;
    case PlanKind::kFilter:
      out << "Filter(" << predicate->ToString() << ")";
      break;
    case PlanKind::kProject: {
      out << "Project(";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) out << ", ";
        out << exprs[i]->ToString();
        if (!names[i].empty()) out << " AS " << names[i];
      }
      out << ")";
      break;
    }
    case PlanKind::kJoin:
      out << (join_type == JoinType::kLeft
                  ? "LeftJoin"
                  : (join_type == JoinType::kCross ? "CrossJoin"
                                                   : "InnerJoin"));
      if (join_condition) out << "(" << join_condition->ToString() << ")";
      break;
    case PlanKind::kAggregate: {
      out << "Aggregate(groups=[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) out << ", ";
        out << group_by[i]->ToString();
      }
      out << "], aggs=[";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) out << ", ";
        out << aggregates[i]->ToString();
      }
      out << "])";
      break;
    }
    case PlanKind::kSort: {
      out << "Sort(";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out << ", ";
        out << sort_keys[i].expr->ToString()
            << (sort_keys[i].ascending ? " ASC" : " DESC");
      }
      out << ")";
      break;
    }
    case PlanKind::kLimit:
      out << "Limit(" << limit;
      if (offset > 0) out << " OFFSET " << offset;
      out << ")";
      break;
    case PlanKind::kDistinct:
      out << "Distinct";
      break;
  }
  out << "\n";
  for (const auto& c : children) out << c->ToString(indent + 1);
  return out.str();
}

PlanPtr LogicalPlan::MakeScan(std::string table_name,
                              storage::TablePtr table) {
  auto plan = std::make_unique<LogicalPlan>();
  plan->kind = PlanKind::kScan;
  plan->table_name = std::move(table_name);
  plan->output_schema = table->schema();
  plan->table = std::move(table);
  return plan;
}

PlanPtr LogicalPlan::MakeFilter(PlanPtr child, ExprPtr predicate) {
  auto plan = std::make_unique<LogicalPlan>();
  plan->kind = PlanKind::kFilter;
  plan->predicate = std::move(predicate);
  plan->output_schema = child->output_schema;
  plan->children.push_back(std::move(child));
  return plan;
}

PlanPtr LogicalPlan::MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names) {
  auto plan = std::make_unique<LogicalPlan>();
  plan->kind = PlanKind::kProject;
  plan->exprs = std::move(exprs);
  plan->names = std::move(names);
  plan->children.push_back(std::move(child));
  return plan;
}

PlanPtr LogicalPlan::MakeLimit(PlanPtr child, int64_t limit, int64_t offset) {
  auto plan = std::make_unique<LogicalPlan>();
  plan->kind = PlanKind::kLimit;
  plan->limit = limit;
  plan->offset = offset;
  plan->output_schema = child->output_schema;
  plan->children.push_back(std::move(child));
  return plan;
}

}  // namespace flock::sql
