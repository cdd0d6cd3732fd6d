#pragma once

// Cardinality-driven query planning for the SPARQL engine (QueryEngine in
// sparql.hpp, implemented in plan.cpp: the KB's only executor).
//
// PlanBgp orders a basic graph pattern greedily by estimated match count,
// using the store's per-pattern counts (exact on the base for constant
// positions, plus the delta's exact count) and the base's
// characteristic-set statistics for star joins (several patterns sharing a subject variable):
// the number of subjects whose predicate signature includes every constant
// predicate seen so far is an exact star-cardinality bound, which the plain
// per-pattern counts cannot see.
//
// Each chosen step also carries its join strategy:
//  * kCross        — the pattern shares no bound variable with the rows
//                    accumulated so far: scan its matches ONCE and
//                    cross-join instead of rescanning per row.
//  * kMergeFilter  — subject variable already bound, predicate and object
//                    constant: sort the rows by the variable and merge
//                    against the (p, o) compressed posting list — a merge
//                    semi-join over sorted ids, one linear pass.
//  * kProbe        — general case: per-row index probe via TripleStore::Match
//                    with the row's bindings substituted.

#include <cstdint>
#include <string_view>
#include <vector>

#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::kb {

enum class JoinStrategy {
  kCross,
  kMergeFilter,
  kProbe,
};

struct PlanStep {
  const TriplePattern* pattern = nullptr;
  /// Constant positions resolved to ids at plan time (variables stay
  /// nullopt). kInvalidTermId marks a constant the term table lacks:
  /// the step — and with it the whole BGP — matches nothing.
  TriplePatternIds constants;
  std::uint64_t estimate = 0;  ///< match-count estimate when chosen
  JoinStrategy strategy = JoinStrategy::kProbe;
};

struct BgpPlan {
  std::vector<PlanStep> steps;
};

/// Orders the patterns of one BGP. `bound` is indexed by interned variable
/// id and marks variables already bound by the enclosing context; the
/// planner simulates binding propagation across its own copy. Constants
/// resolve through the store's live term table.
[[nodiscard]] BgpPlan PlanBgp(const std::vector<TriplePattern>& triples,
                              std::vector<bool> bound,
                              const TripleStore& store);

}  // namespace scan::kb
