#include "scan/kb/plan.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "scan/kb/query_common.hpp"

namespace scan::kb {

namespace {

using detail::Ebv;
using detail::Row;

/// True if the node is a variable currently marked bound.
bool IsBoundVar(const PatternNode& node, const std::vector<bool>& bound) {
  const auto* v = std::get_if<Variable>(&node);
  return v != nullptr && v->id < bound.size() && bound[v->id];
}

void CollectVars(const TriplePattern& tp, std::vector<bool>& bound) {
  for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
    if (const auto* v = std::get_if<Variable>(node)) {
      if (v->id < bound.size()) bound[v->id] = true;
    }
  }
}

/// Resolves the constant positions of a pattern to ids (kInvalidTermId for
/// constants the term table has never seen — such a step matches nothing).
TriplePatternIds ResolveConstants(const TriplePattern& tp,
                                  const TermTable& terms) {
  TriplePatternIds out;
  auto resolve = [&](const PatternNode& node, std::optional<TermId>& slot) {
    if (const auto* term = std::get_if<Term>(&node)) {
      const auto id = terms.Lookup(*term);
      slot = id ? *id : kInvalidTermId;
    }
  };
  resolve(tp.s, out.s);
  resolve(tp.p, out.p);
  resolve(tp.o, out.o);
  return out;
}

bool HasImpossibleConstant(const TriplePatternIds& c) {
  return (c.s && *c.s == kInvalidTermId) || (c.p && *c.p == kInvalidTermId) ||
         (c.o && *c.o == kInvalidTermId);
}

/// Match-count estimate for one step given the simulated bound set and the
/// constant predicates accumulated per subject variable (star context).
std::uint64_t EstimateStep(
    const TriplePattern& tp, const TriplePatternIds& constants,
    const std::vector<bool>& bound,
    const std::unordered_map<std::uint32_t, std::vector<TermId>>& star_preds,
    const TripleStore& store) {
  if (HasImpossibleConstant(constants)) return 0;
  const FrozenIndex& base = store.base();
  std::uint64_t est = store.CountEstimate(constants);

  // Star refinement: (?s, p, ?o) where ?s already carries constant
  // predicates from chosen patterns. Characteristic sets give the exact
  // number of subjects having the whole predicate set; scale by the average
  // object fan-out of p. The sets describe the base only, so a predicate
  // the base has never seen keeps its plain estimate.
  const auto* s_var = std::get_if<Variable>(&tp.s);
  if (s_var != nullptr && constants.p && !constants.o &&
      std::holds_alternative<Variable>(tp.o)) {
    const auto it = star_preds.find(s_var->id);
    const std::uint64_t p_subjects =
        it == star_preds.end() || it->second.empty()
            ? 0
            : base.CountSubjectsWithPredicates(
                  std::span<const TermId>(&*constants.p, 1));
    if (p_subjects > 0) {
      std::vector<TermId> preds = it->second;
      preds.push_back(*constants.p);
      const std::uint64_t star_subjects =
          base.CountSubjectsWithPredicates(preds);
      const std::uint64_t fan_out =
          std::max<std::uint64_t>(1, est / p_subjects);
      est = star_subjects * fan_out;
    }
  }

  // Bound variables narrow the pattern: deflate by the matched dimension's
  // distinct count (a uniformity assumption, only used for ordering).
  const FrozenIndex::Stats& stats = base.stats();
  auto deflate = [&](std::uint64_t dim) {
    if (est > 0) est = std::max<std::uint64_t>(1, est / std::max<std::uint64_t>(1, dim));
  };
  if (IsBoundVar(tp.s, bound)) deflate(stats.subjects);
  if (IsBoundVar(tp.p, bound)) deflate(stats.predicates);
  if (IsBoundVar(tp.o, bound)) deflate(stats.objects);
  return est;
}

JoinStrategy ChooseStrategy(const TriplePattern& tp,
                            const TriplePatternIds& constants,
                            const std::vector<bool>& bound) {
  const bool any_bound_var = IsBoundVar(tp.s, bound) ||
                             IsBoundVar(tp.p, bound) || IsBoundVar(tp.o, bound);
  if (!any_bound_var) return JoinStrategy::kCross;
  if (IsBoundVar(tp.s, bound) && constants.p && constants.o) {
    return JoinStrategy::kMergeFilter;
  }
  return JoinStrategy::kProbe;
}

/// Binds a variable node to `value`; false if a same-row repeated variable
/// conflicts.
bool BindIfVar(const PatternNode& node, TermId value, Row& row) {
  const auto* var = std::get_if<Variable>(&node);
  if (var == nullptr) return true;
  assert(var->id < row.size());
  if (row[var->id] == kInvalidTermId) {
    row[var->id] = value;
    return true;
  }
  return row[var->id] == value;
}

class Evaluator {
 public:
  Evaluator(const TripleStore& store, std::size_t var_count)
      : store_(store), var_count_(var_count) {}

  std::vector<Row> EvaluateGroup(const GroupPattern& group,
                                 std::vector<Row> seeds) const {
    std::vector<Row> current = std::move(seeds);
    std::vector<bool> bound(var_count_, false);
    if (!current.empty()) {
      const Row& front = current.front();
      for (std::size_t i = 0; i < front.size(); ++i) {
        bound[i] = front[i] != kInvalidTermId;
      }
    }

    // 1. Basic graph pattern, in planned order.
    if (!group.triples.empty() && !current.empty()) {
      const BgpPlan plan = PlanBgp(group.triples, bound, store_);
      for (const PlanStep& step : plan.steps) {
        if (current.empty()) break;
        ApplyStep(step, current);
        CollectVars(*step.pattern, bound);
      }
    }
    if (!group.triples.empty() && current.empty()) return {};

    // 2. UNION alternations.
    for (const auto& branches : group.unions) {
      std::vector<Row> next;
      for (const Row& row : current) {
        for (const GroupPattern& branch : branches) {
          for (auto& extended : EvaluateGroup(branch, {row})) {
            next.push_back(std::move(extended));
          }
        }
      }
      current = std::move(next);
      if (current.empty()) break;
    }

    // 3. OPTIONAL groups: left outer join, in source order.
    for (const GroupPattern& opt : group.optionals) {
      std::vector<Row> next;
      for (const Row& row : current) {
        auto extended = EvaluateGroup(opt, {row});
        if (extended.empty()) {
          next.push_back(row);
        } else {
          for (auto& e : extended) next.push_back(std::move(e));
        }
      }
      current = std::move(next);
    }

    // 4. FILTERs.
    for (const ExprPtr& filter : group.filters) {
      std::vector<Row> kept;
      for (Row& row : current) {
        if (detail::EvalExpr(*filter, row, store_.terms()) == Ebv::kTrue) {
          kept.push_back(std::move(row));
        }
      }
      current = std::move(kept);
    }
    return current;
  }

 private:
  void ApplyStep(const PlanStep& step, std::vector<Row>& rows) const {
    if (HasImpossibleConstant(step.constants)) {
      rows.clear();
      return;
    }
    switch (step.strategy) {
      case JoinStrategy::kCross:
        ApplyCross(step, rows);
        return;
      case JoinStrategy::kMergeFilter:
        ApplyMergeFilter(step, rows);
        return;
      case JoinStrategy::kProbe:
        ApplyProbe(step, rows);
        return;
    }
  }

  /// No bound variables: scan the pattern's matches once, then cross-join
  /// with every accumulated row (whose bindings are disjoint by
  /// construction).
  void ApplyCross(const PlanStep& step, std::vector<Row>& rows) const {
    const TriplePattern& tp = *step.pattern;
    // Map each position to a slot in the per-match value tuple; repeated
    // variables share a slot and must agree.
    std::array<int, 3> pos_slot{-1, -1, -1};
    std::vector<std::uint32_t> slot_vars;
    auto reg = [&](const PatternNode& node, int pos) {
      if (const auto* v = std::get_if<Variable>(&node)) {
        for (std::size_t k = 0; k < slot_vars.size(); ++k) {
          if (slot_vars[k] == v->id) {
            pos_slot[static_cast<std::size_t>(pos)] = static_cast<int>(k);
            return;
          }
        }
        pos_slot[static_cast<std::size_t>(pos)] =
            static_cast<int>(slot_vars.size());
        slot_vars.push_back(v->id);
      }
    };
    reg(tp.s, 0);
    reg(tp.p, 1);
    reg(tp.o, 2);

    std::vector<std::array<TermId, 3>> extensions;
    store_.Match(step.constants, [&](const Triple& t) {
      std::array<TermId, 3> vals{kInvalidTermId, kInvalidTermId,
                                 kInvalidTermId};
      const std::array<TermId, 3> tv{t.s, t.p, t.o};
      for (std::size_t pos = 0; pos < 3; ++pos) {
        const int slot = pos_slot[pos];
        if (slot < 0) continue;
        auto& v = vals[static_cast<std::size_t>(slot)];
        if (v == kInvalidTermId) {
          v = tv[pos];
        } else if (v != tv[pos]) {
          return true;  // repeated-variable conflict within the triple
        }
      }
      extensions.push_back(vals);
      return true;
    });

    std::vector<Row> next;
    next.reserve(rows.size() * extensions.size());
    for (const Row& row : rows) {
      for (const auto& vals : extensions) {
        Row extended = row;
        for (std::size_t k = 0; k < slot_vars.size(); ++k) {
          extended[slot_vars[k]] = vals[k];
        }
        next.push_back(std::move(extended));
      }
    }
    rows = std::move(next);
  }

  /// Merge semi-join: rows sorted by the subject variable, streamed against
  /// the ascending (p, o) posting list in one pass.
  void ApplyMergeFilter(const PlanStep& step, std::vector<Row>& rows) const {
    const auto& var = std::get<Variable>(step.pattern->s);
    const std::uint32_t vid = var.id;
    const TermId p = *step.constants.p;
    const TermId o = *step.constants.o;
    std::stable_sort(rows.begin(), rows.end(),
                     [vid](const Row& a, const Row& b) {
                       return Index(a[vid]) < Index(b[vid]);
                     });
    std::vector<Row> kept;
    std::size_t i = 0;
    store_.SubjectsVisit(p, o, [&](TermId s) {
      while (i < rows.size() && Index(rows[i][vid]) < Index(s)) ++i;
      while (i < rows.size() && rows[i][vid] == s) {
        kept.push_back(std::move(rows[i]));
        ++i;
      }
      return i < rows.size();
    });
    rows = std::move(kept);
  }

  /// General case: per-row index probe with the row's bindings substituted.
  void ApplyProbe(const PlanStep& step, std::vector<Row>& rows) const {
    const TriplePattern& tp = *step.pattern;
    std::vector<Row> next;
    for (const Row& row : rows) {
      TriplePatternIds ids = step.constants;
      auto fill = [&](const PatternNode& node, std::optional<TermId>& slot) {
        if (const auto* v = std::get_if<Variable>(&node)) {
          const TermId value = row[v->id];
          if (value != kInvalidTermId) slot = value;
        }
      };
      fill(tp.s, ids.s);
      fill(tp.p, ids.p);
      fill(tp.o, ids.o);
      store_.Match(ids, [&](const Triple& t) {
        Row extended = row;
        if (!BindIfVar(tp.s, t.s, extended)) return true;
        if (!BindIfVar(tp.p, t.p, extended)) return true;
        if (!BindIfVar(tp.o, t.o, extended)) return true;
        next.push_back(std::move(extended));
        return true;
      });
    }
    rows = std::move(next);
  }

  const TripleStore& store_;
  std::size_t var_count_;
};

}  // namespace

BgpPlan PlanBgp(const std::vector<TriplePattern>& triples,
                std::vector<bool> bound, const TripleStore& store) {
  BgpPlan plan;
  plan.steps.reserve(triples.size());

  // Grow the bound vector to cover every variable id we may meet (callers
  // normally size it to the query's variable count already).
  for (const TriplePattern& tp : triples) {
    for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
      if (const auto* v = std::get_if<Variable>(node)) {
        if (v->id != kNoVarId && v->id >= bound.size()) {
          bound.resize(v->id + 1, false);
        }
      }
    }
  }

  std::vector<const TriplePattern*> remaining;
  remaining.reserve(triples.size());
  for (const TriplePattern& tp : triples) remaining.push_back(&tp);
  std::vector<TriplePatternIds> constants;
  constants.reserve(triples.size());
  for (const TriplePattern& tp : triples) {
    constants.push_back(ResolveConstants(tp, store.terms()));
  }

  // Constant predicates accumulated per subject variable (star context).
  std::unordered_map<std::uint32_t, std::vector<TermId>> star_preds;

  while (!remaining.empty()) {
    std::size_t best = 0;
    std::uint64_t best_estimate = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      const std::uint64_t est =
          EstimateStep(*remaining[i], constants[i], bound, star_preds, store);
      if (est < best_estimate) {  // ties: keep the earliest (deterministic)
        best_estimate = est;
        best = i;
      }
    }

    PlanStep step;
    step.pattern = remaining[best];
    step.constants = constants[best];
    step.estimate = best_estimate;
    step.strategy = ChooseStrategy(*step.pattern, step.constants, bound);
    plan.steps.push_back(step);

    if (const auto* v = std::get_if<Variable>(&step.pattern->s)) {
      if (step.constants.p && *step.constants.p != kInvalidTermId) {
        star_preds[v->id].push_back(*step.constants.p);
      }
    }
    CollectVars(*step.pattern, bound);
    remaining.erase(remaining.begin() + static_cast<long>(best));
    constants.erase(constants.begin() + static_cast<long>(best));
  }
  return plan;
}

Result<ResultSet> QueryEngine::Execute(const SelectQuery& query) const {
  Evaluator evaluator(store_, query.var_names.size());
  std::vector<Row> solutions = evaluator.EvaluateGroup(
      query.where, {Row(query.var_names.size(), kInvalidTermId)});
  return detail::MaterializeResults(query, store_.terms(),
                                    std::move(solutions));
}

Result<ResultSet> QueryEngine::Execute(std::string_view text) const {
  auto query = ParseSparql(text);
  if (!query.ok()) return query.status();
  return Execute(query.value());
}

}  // namespace scan::kb
