#pragma once

// The flat solution-row representation plus the FILTER-expression and
// result-materialization machinery shared by the KB's query engine
// (plan.cpp) and the reference evaluator testkit keeps as its differential
// oracle (scan/testkit/kb_reference.hpp).
//
// A solution row is a vector<TermId> indexed by the query's interned
// variable ids (SelectQuery::var_names); kInvalidTermId (0) means unbound,
// which is safe because id 0 is the TermTable sentinel.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "scan/kb/sparql.hpp"

namespace scan::kb::detail {

using Row = std::vector<TermId>;

/// Tri-state FILTER evaluation result per SPARQL semantics.
enum class Ebv { kTrue, kFalse, kError };

[[nodiscard]] Ebv Not(Ebv v);

/// SPARQL effective boolean value of a FILTER expression under a row.
[[nodiscard]] Ebv EvalExpr(const Expr& expr, const Row& row,
                           const TermTable& terms);

/// Dense id of a variable name within the query, if it was interned (i.e.
/// appears in the WHERE clause).
[[nodiscard]] std::optional<std::uint32_t> VarIdOf(const SelectQuery& query,
                                                   std::string_view name);

/// Shared back half of query execution: aggregates (GROUP BY path) or
/// plain projection, ORDER BY, DISTINCT, LIMIT/OFFSET. Consumes the
/// solution rows. Row order is preserved when no ORDER BY is given.
[[nodiscard]] Result<ResultSet> MaterializeResults(const SelectQuery& query,
                                                   const TermTable& terms,
                                                   std::vector<Row>&& rows);

}  // namespace scan::kb::detail
