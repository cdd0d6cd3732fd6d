#include "scan/testkit/kb_reference.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "scan/common/str.hpp"
#include "scan/kb/ontology.hpp"
#include "scan/kb/query_common.hpp"

namespace scan::testkit {

using kb::Index;
using kb::kInvalidTermId;
using kb::Term;
using kb::TermId;
using kb::Triple;
using kb::TriplePatternIds;

namespace {

using Pair = std::pair<TermId, TermId>;

bool PairLess(Pair a, Pair b) {
  if (Index(a.first) != Index(b.first)) {
    return Index(a.first) < Index(b.first);
  }
  return Index(a.second) < Index(b.second);
}

bool InsertSorted(std::vector<Pair>& postings, Pair kv) {
  const auto it =
      std::lower_bound(postings.begin(), postings.end(), kv, PairLess);
  if (it != postings.end() && *it == kv) return false;
  postings.insert(it, kv);
  return true;
}

bool EraseSorted(std::vector<Pair>& postings, Pair kv) {
  const auto it =
      std::lower_bound(postings.begin(), postings.end(), kv, PairLess);
  if (it == postings.end() || !(*it == kv)) return false;
  postings.erase(it);
  return true;
}

}  // namespace

ReferenceStore ReferenceStore::Mirror(const kb::TripleStore& store) {
  ReferenceStore out;
  out.terms_ = store.terms();
  store.Match({}, [&](const Triple& t) {
    out.Add(t);
    return true;
  });
  return out;
}

bool ReferenceStore::Add(const Term& s, const Term& p, const Term& o) {
  return Add(Triple{terms_.Intern(s), terms_.Intern(p), terms_.Intern(o)});
}

bool ReferenceStore::Add(Triple t) {
  assert(Index(t.s) != 0 && Index(t.p) != 0 && Index(t.o) != 0);
  if (!InsertSorted(spo_[Index(t.s)], {t.p, t.o})) return false;
  InsertSorted(pos_[Index(t.p)], {t.o, t.s});
  InsertSorted(osp_[Index(t.o)], {t.s, t.p});
  ++count_;
  return true;
}

bool ReferenceStore::Remove(Triple t) {
  const auto it = spo_.find(Index(t.s));
  if (it == spo_.end() || !EraseSorted(it->second, {t.p, t.o})) return false;
  // Empty posting lists go, so the full scan never visits dead subjects.
  if (it->second.empty()) spo_.erase(it);
  const auto pit = pos_.find(Index(t.p));
  EraseSorted(pit->second, {t.o, t.s});
  if (pit->second.empty()) pos_.erase(pit);
  const auto oit = osp_.find(Index(t.o));
  EraseSorted(oit->second, {t.s, t.p});
  if (oit->second.empty()) osp_.erase(oit);
  --count_;
  return true;
}

bool ReferenceStore::Contains(Triple t) const {
  const auto it = spo_.find(Index(t.s));
  if (it == spo_.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(),
                            Pair{t.p, t.o}, PairLess);
}

void ReferenceStore::Match(const TriplePatternIds& pattern,
                           FunctionRef<bool(const Triple&)> fn) const {
  if (pattern.s) {
    const auto it = spo_.find(Index(*pattern.s));
    if (it == spo_.end()) return;
    for (const auto& [p, o] : it->second) {
      if (pattern.p && !(p == *pattern.p)) continue;
      if (pattern.o && !(o == *pattern.o)) continue;
      if (!fn(Triple{*pattern.s, p, o})) return;
    }
    return;
  }
  if (pattern.p) {
    const auto it = pos_.find(Index(*pattern.p));
    if (it == pos_.end()) return;
    for (const auto& [o, s] : it->second) {
      if (pattern.o && !(o == *pattern.o)) continue;
      if (!fn(Triple{s, *pattern.p, o})) return;
    }
    return;
  }
  if (pattern.o) {
    const auto it = osp_.find(Index(*pattern.o));
    if (it == osp_.end()) return;
    for (const auto& [s, p] : it->second) {
      if (!fn(Triple{s, p, *pattern.o})) return;
    }
    return;
  }
  std::vector<std::uint32_t> subjects;
  subjects.reserve(spo_.size());
  for (const auto& [s, _] : spo_) subjects.push_back(s);
  std::sort(subjects.begin(), subjects.end());
  for (const std::uint32_t s : subjects) {
    for (const auto& [p, o] : spo_.at(s)) {
      if (!fn(Triple{TermId{s}, p, o})) return;
    }
  }
}

std::vector<Triple> ReferenceStore::MatchAll(
    const TriplePatternIds& pattern) const {
  std::vector<Triple> out;
  Match(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::vector<TermId> ReferenceStore::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  Match(TriplePatternIds{s, p, std::nullopt}, [&](const Triple& t) {
    out.push_back(t.o);
    return true;
  });
  return out;
}

std::vector<TermId> ReferenceStore::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  Match(TriplePatternIds{std::nullopt, p, o}, [&](const Triple& t) {
    out.push_back(t.s);
    return true;
  });
  return out;
}

std::optional<TermId> ReferenceStore::FirstObject(TermId s, TermId p) const {
  std::optional<TermId> out;
  Match(TriplePatternIds{s, p, std::nullopt}, [&](const Triple& t) {
    out = t.o;
    return false;
  });
  return out;
}

std::vector<TermId> ReferenceStore::InstancesOf(TermId type) const {
  const auto rdf_type = terms_.Lookup(kb::MakeIri(std::string(kb::kRdfType)));
  if (!rdf_type) return {};
  return Subjects(*rdf_type, type);
}

namespace {

using kb::GroupPattern;
using kb::PatternNode;
using kb::TriplePattern;
using kb::Variable;
using kb::detail::Ebv;
using kb::detail::Row;

class Evaluator {
 public:
  Evaluator(const ReferenceStore& store, std::size_t var_count)
      : store_(store), var_count_(var_count) {}

  std::vector<Row> EvaluateGroup(const GroupPattern& group,
                                 std::vector<Row> seeds) const {
    // 1. Basic graph pattern: extend seeds pattern by pattern. Patterns are
    //    reordered greedily so the most selective (fewest unbound positions
    //    relative to current bindings) runs first. Constant terms resolve
    //    once per BGP, not once per row.
    std::vector<std::size_t> remaining;
    std::vector<TriplePatternIds> constants;
    remaining.reserve(group.triples.size());
    constants.reserve(group.triples.size());
    for (std::size_t i = 0; i < group.triples.size(); ++i) {
      remaining.push_back(i);
      constants.push_back(ResolveConstants(group.triples[i]));
    }

    std::vector<Row> current = std::move(seeds);
    // Track which variables are certainly bound in every row so the pattern
    // ordering heuristic can count bound positions.
    std::vector<bool> bound(var_count_, false);
    if (!current.empty()) {
      const Row& front = current.front();
      for (std::size_t i = 0; i < front.size(); ++i) {
        bound[i] = front[i] != kInvalidTermId;
      }
    }

    while (!remaining.empty()) {
      // Pick the pattern with the most bound positions.
      std::size_t best = 0;
      int best_score = -1;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        const int score = BoundScore(group.triples[remaining[i]], bound);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      const std::size_t chosen = remaining[best];
      remaining.erase(remaining.begin() + static_cast<long>(best));
      const TriplePattern& tp = group.triples[chosen];

      std::vector<Row> next;
      for (const Row& row : current) {
        ExtendWithPattern(tp, constants[chosen], row, next);
      }
      current = std::move(next);
      CollectVars(tp, bound);
      if (current.empty()) break;
    }

    // 2. UNION alternations: each construct maps every current solution
    //    through each branch and concatenates the extensions.
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

    // 4. FILTERs: keep rows whose every filter evaluates to true.
    for (const kb::ExprPtr& filter : group.filters) {
      std::vector<Row> kept;
      for (Row& row : current) {
        if (kb::detail::EvalExpr(*filter, row, store_.terms()) ==
            Ebv::kTrue) {
          kept.push_back(std::move(row));
        }
      }
      current = std::move(kept);
    }
    return current;
  }

 private:
  static int BoundScore(const TriplePattern& tp,
                        const std::vector<bool>& bound) {
    auto node_bound = [&](const PatternNode& node) {
      if (std::holds_alternative<Term>(node)) return 2;  // constant: best
      const auto& var = std::get<Variable>(node);
      return var.id < bound.size() && bound[var.id] ? 2 : 0;
    };
    return node_bound(tp.s) + node_bound(tp.p) + node_bound(tp.o);
  }

  static void CollectVars(const TriplePattern& tp, std::vector<bool>& bound) {
    for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
      if (const auto* v = std::get_if<Variable>(node)) {
        if (v->id < bound.size()) bound[v->id] = true;
      }
    }
  }

  /// The constant positions of a pattern as ids; constants not present in
  /// the store resolve to kInvalidTermId, which matches nothing.
  TriplePatternIds ResolveConstants(const TriplePattern& tp) const {
    TriplePatternIds out;
    auto resolve = [&](const PatternNode& node, std::optional<TermId>& slot) {
      if (const auto* term = std::get_if<Term>(&node)) {
        slot = store_.terms().Lookup(*term).value_or(kInvalidTermId);
      }
    };
    resolve(tp.s, out.s);
    resolve(tp.p, out.p);
    resolve(tp.o, out.o);
    return out;
  }

  /// A pattern position under a row: its resolved constant, the row's
  /// binding, or nullopt for a still-free variable.
  static std::optional<TermId> Resolve(const PatternNode& node,
                                       const std::optional<TermId>& constant,
                                       const Row& row) {
    if (constant) return constant;
    const auto& var = std::get<Variable>(node);
    assert(var.id < row.size());
    const TermId value = row[var.id];
    if (value == kInvalidTermId) return std::nullopt;
    return value;
  }

  void ExtendWithPattern(const TriplePattern& tp,
                         const TriplePatternIds& constants, const Row& row,
                         std::vector<Row>& out) const {
    const auto s = Resolve(tp.s, constants.s, row);
    const auto p = Resolve(tp.p, constants.p, row);
    const auto o = Resolve(tp.o, constants.o, row);
    // A constant term absent from the store can never match.
    if ((s && *s == kInvalidTermId) || (p && *p == kInvalidTermId) ||
        (o && *o == kInvalidTermId)) {
      return;
    }
    store_.Match(TriplePatternIds{s, p, o}, [&](const Triple& t) {
      Row extended = row;
      if (!BindIfVar(tp.s, t.s, extended)) return true;
      if (!BindIfVar(tp.p, t.p, extended)) return true;
      if (!BindIfVar(tp.o, t.o, extended)) return true;
      out.push_back(std::move(extended));
      return true;
    });
  }

  /// Binds a variable node to `value`; false if a same-row repeated
  /// variable conflicts (e.g. `?x :p ?x` with s != o).
  static bool BindIfVar(const PatternNode& node, TermId value, Row& row) {
    const auto* var = std::get_if<Variable>(&node);
    if (var == nullptr) return true;
    assert(var->id < row.size());
    if (row[var->id] == kInvalidTermId) {
      row[var->id] = value;
      return true;
    }
    return row[var->id] == value;
  }

  const ReferenceStore& store_;
  std::size_t var_count_;
};

/// Local name of an individual's IRI (the part after '#').
std::string LocalName(const std::string& iri) {
  const std::size_t hash_pos = iri.rfind('#');
  return hash_pos == std::string::npos ? iri : iri.substr(hash_pos + 1);
}

}  // namespace

Result<kb::ResultSet> ReferenceQueryEngine::Execute(
    const kb::SelectQuery& query) const {
  Evaluator evaluator(store_, query.var_names.size());
  std::vector<Row> solutions = evaluator.EvaluateGroup(
      query.where, {Row(query.var_names.size(), kInvalidTermId)});
  return kb::detail::MaterializeResults(query, store_.terms(),
                                        std::move(solutions));
}

Result<kb::ResultSet> ReferenceQueryEngine::Execute(
    std::string_view text) const {
  auto query = kb::ParseSparql(text);
  if (!query.ok()) return query.status();
  return Execute(query.value());
}

Result<kb::ShardAdvice> ReferenceAdviseShardSize(const ReferenceStore& store,
                                                 std::string_view application,
                                                 double min_gb,
                                                 double max_gb) {
  if (min_gb < 0.0 || max_gb < min_gb) {
    return InvalidArgumentError("AdviseShardSize: bad size bounds");
  }
  // The broker's query, in SPARQL as the paper prescribes. OPTIONAL blocks
  // tolerate profiles missing CPU/RAM attributes.
  const std::string query_text =
      kb::KnowledgeBase::QueryPrefixes() +
      StrFormat(
          "SELECT ?ind ?size ?etime ?cpu ?ram WHERE {\n"
          "  ?ind a scan:Application .\n"
          "  ?ind scan:application \"%s\" .\n"
          "  ?ind scan:inputFileSize ?size .\n"
          "  ?ind scan:eTime ?etime .\n"
          "  OPTIONAL { ?ind scan:CPU ?cpu . }\n"
          "  OPTIONAL { ?ind scan:RAM ?ram . }\n"
          "  FILTER(?size >= %.17g && ?size <= %.17g && ?etime > 0)\n"
          "} ORDER BY ASC(?etime)",
          std::string(application).c_str(), min_gb, max_gb);

  auto result = ReferenceQueryEngine(store).Execute(query_text);
  if (!result.ok()) return result.status();

  const auto& rs = result.value();
  const auto ind_col = rs.ColumnOf("ind");
  const auto size_col = rs.ColumnOf("size");
  const auto etime_col = rs.ColumnOf("etime");
  const auto cpu_col = rs.ColumnOf("cpu");
  const auto ram_col = rs.ColumnOf("ram");
  if (!ind_col || !size_col || !etime_col) {
    return InternalError("AdviseShardSize: projection mismatch");
  }

  kb::ShardAdvice best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& row : rs.rows) {
    const auto size = kb::NumericValue(*row[*size_col]);
    const auto etime = kb::NumericValue(*row[*etime_col]);
    if (!size || !etime || *size <= 0.0) continue;
    const double score = *etime / *size;
    if (score < best_score) {
      best_score = score;
      best.shard_size_gb = *size;
      best.time_per_gb = score;
      best.source_individual = LocalName(row[*ind_col]->lexical);
      best.recommended_cpu =
          (cpu_col && row[*cpu_col])
              ? static_cast<int>(
                    kb::NumericValue(*row[*cpu_col]).value_or(0.0))
              : 0;
      best.recommended_ram_gb =
          (ram_col && row[*ram_col])
              ? kb::NumericValue(*row[*ram_col]).value_or(0.0)
              : 0.0;
    }
  }
  if (best_score == std::numeric_limits<double>::infinity()) {
    return NotFoundError("AdviseShardSize: no profile for application '" +
                         std::string(application) + "' within bounds");
  }
  return best;
}

std::vector<kb::ApplicationProfile> ReferenceProfiles(
    const ReferenceStore& store, std::string_view application,
    std::optional<int> stage) {
  using namespace kb::vocab;
  std::vector<kb::ApplicationProfile> out;
  const kb::TermTable& terms = store.terms();
  const auto app_prop = terms.Lookup(PropApplication());
  const auto app_value =
      terms.Lookup(kb::MakeStringLiteral(std::string(application)));
  if (!app_prop || !app_value) return out;

  auto object_of = [&](TermId subject,
                       const Term& prop) -> std::optional<Term> {
    const auto pid = terms.Lookup(prop);
    if (!pid) return std::nullopt;
    const auto obj = store.FirstObject(subject, *pid);
    if (!obj) return std::nullopt;
    return terms.Get(*obj);
  };
  auto numeric_of = [&](TermId subject, const Term& prop) {
    const auto term = object_of(subject, prop);
    return term ? kb::NumericValue(*term).value_or(0.0) : 0.0;
  };

  for (const TermId subject : store.Subjects(*app_prop, *app_value)) {
    kb::ApplicationProfile profile;
    profile.individual = LocalName(terms.Get(subject).lexical);
    profile.application = std::string(application);
    profile.stage = static_cast<int>(numeric_of(subject, PropStage()));
    profile.input_file_size_gb = numeric_of(subject, PropInputFileSize());
    profile.steps = static_cast<int>(numeric_of(subject, PropSteps()));
    profile.cpu = static_cast<int>(numeric_of(subject, PropCpu()));
    profile.ram_gb = numeric_of(subject, PropRam());
    profile.etime = numeric_of(subject, PropETime());
    const int threads = static_cast<int>(numeric_of(subject, PropThreads()));
    profile.threads = threads > 0 ? threads : 1;
    if (const auto performance = object_of(subject, PropPerformance())) {
      profile.performance = performance->lexical;
    }
    if (stage && profile.stage != *stage) continue;
    out.push_back(std::move(profile));
  }
  return out;
}

Result<int> ReferenceAdviseThreads(const ReferenceStore& store,
                                   std::string_view application, int stage) {
  const auto profiles = ReferenceProfiles(store, application, stage);
  if (profiles.empty()) {
    return NotFoundError(StrFormat(
        "AdviseThreads: no profiles for stage %d of '%s'", stage,
        std::string(application).c_str()));
  }
  int best_threads = 1;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& p : profiles) {
    if (p.input_file_size_gb <= 0.0 || p.etime <= 0.0) continue;
    const double score = p.etime / p.input_file_size_gb;
    if (score < best_score) {
      best_score = score;
      best_threads = p.threads;
    }
  }
  if (best_score == std::numeric_limits<double>::infinity()) {
    return NotFoundError("AdviseThreads: no usable profiles");
  }
  return best_threads;
}

}  // namespace scan::testkit
