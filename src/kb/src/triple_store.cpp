#include "scan/kb/triple_store.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace scan::kb {

namespace {

using Pair = std::pair<TermId, TermId>;

// Sorted postings use (first, second) lexicographic order on raw indexes.
bool PairLess(Pair a, Pair b) {
  return std::pair(Index(a.first), Index(a.second)) <
         std::pair(Index(b.first), Index(b.second));
}

bool SpoLess(const Triple& a, const Triple& b) {
  return std::tuple(Index(a.s), Index(a.p), Index(a.o)) <
         std::tuple(Index(b.s), Index(b.p), Index(b.o));
}

bool PosLess(const Triple& a, const Triple& b) {
  return std::tuple(Index(a.p), Index(a.o), Index(a.s)) <
         std::tuple(Index(b.p), Index(b.o), Index(b.s));
}

bool OspLess(const Triple& a, const Triple& b) {
  return std::tuple(Index(a.o), Index(a.s), Index(a.p)) <
         std::tuple(Index(b.o), Index(b.s), Index(b.p));
}

bool IdLess(TermId a, TermId b) { return Index(a) < Index(b); }

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

/// The postings of `key` whose first component is `first`, ascending by
/// the second.
template <typename Map>
std::span<const Pair> DeltaRange(const Map& index, TermId key, TermId first) {
  if (index.empty()) return {};
  const auto it = index.find(Index(key));
  if (it == index.end()) return {};
  const auto& postings = it->second;
  const auto lo = std::lower_bound(postings.begin(), postings.end(),
                                   Pair{first, kInvalidTermId}, PairLess);
  auto hi = lo;
  while (hi != postings.end() && hi->first == first) ++hi;
  return {lo, hi};
}

/// Feeds `fn` the ascending union of a base stream (pushed through
/// `base_visit`) and an ascending delta range; `value` projects a delta
/// element onto the emitted type. Base and delta never share an element.
template <typename Value, typename Delta, typename Project, typename Less,
          typename BaseVisit, typename Fn>
void MergeVisit(std::span<const Delta> delta, Project value, Less less,
                BaseVisit base_visit, Fn& fn) {
  std::size_t next = 0;
  bool stopped = false;
  base_visit([&](const Value& v) {
    while (next < delta.size() && less(value(delta[next]), v)) {
      if (!fn(value(delta[next++]))) {
        stopped = true;
        return false;
      }
    }
    stopped = !fn(v);
    return !stopped;
  });
  if (stopped) return;
  while (next < delta.size()) {
    if (!fn(value(delta[next++]))) return;
  }
}

TermId Second(const Pair& kv) { return kv.second; }

}  // namespace

bool TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  return Add(Triple{terms_.Intern(s), terms_.Intern(p), terms_.Intern(o)});
}

bool TripleStore::Add(Triple t) {
  assert(Index(t.s) != 0 && Index(t.p) != 0 && Index(t.o) != 0);
  if (base_.Contains(t)) return false;
  if (!InsertSorted(spo_[Index(t.s)], {t.p, t.o})) return false;
  InsertSorted(pos_[Index(t.p)], {t.o, t.s});
  InsertSorted(osp_[Index(t.o)], {t.s, t.p});
  ++delta_size_;
  if (delta_size_ > kCompactFloor &&
      delta_size_ > base_.size() / kCompactDivisor) {
    Compact();
  }
  return true;
}

std::size_t TripleStore::AddBatch(std::span<const Triple> triples) {
  if (triples.empty()) return 0;
  const std::size_t before = size();
  Rebuild(triples);
  return size() - before;
}

bool TripleStore::Remove(Triple t) {
  const auto it = spo_.find(Index(t.s));
  if (it != spo_.end() && EraseSorted(it->second, {t.p, t.o})) {
    // Erase posting lists that just became empty: the full-scan path
    // visits every spo_ key. The secondary indexes are looked up with
    // find() — operator[] would default-create an entry when the maps
    // ever disagree, hiding the corruption it implies.
    if (it->second.empty()) spo_.erase(it);
    if (const auto pit = pos_.find(Index(t.p)); pit != pos_.end()) {
      EraseSorted(pit->second, {t.o, t.s});
      if (pit->second.empty()) pos_.erase(pit);
    }
    if (const auto oit = osp_.find(Index(t.o)); oit != osp_.end()) {
      EraseSorted(oit->second, {t.s, t.p});
      if (oit->second.empty()) osp_.erase(oit);
    }
    --delta_size_;
    return true;
  }
  if (!base_.Contains(t)) return false;
  Rebuild({}, t);
  return true;
}

void TripleStore::Compact() {
  if (delta_size_ > 0) Rebuild({});
}

void TripleStore::Rebuild(std::span<const Triple> extra,
                          std::optional<Triple> removed) {
  // The delta drains from spo_ alone; free the other two indexes first.
  pos_ = {};
  osp_ = {};
  std::vector<Triple> delta;
  delta.reserve(delta_size_);
  DeltaMatch({}, [&](const Triple& t) {
    delta.push_back(t);
    return true;
  });
  spo_ = {};
  delta_size_ = 0;
  const auto id_limit = static_cast<std::uint32_t>(terms_.size()) + 1;
  const TermId rdf_type = terms_.Lookup(MakeIri(std::string(kRdfType)))
                              .value_or(kInvalidTermId);

  // Fresh subjects only (every task log mints one): append in place.
  if (extra.empty() && !removed && !delta.empty() &&
      base_.AppendsAt(delta.front().s)) {
    base_.Append(std::move(delta), id_limit, rdf_type);
    return;
  }

  // Otherwise rebuild from base, delta and batch in one sorted vector.
  std::vector<Triple> merged;
  merged.reserve(base_.size() + delta.size() + extra.size());
  base_.Match({}, [&](const Triple& t) {
    merged.push_back(t);
    return true;
  });
  merged.insert(merged.end(), delta.begin(), delta.end());
  merged.insert(merged.end(), extra.begin(), extra.end());
  delta = {};
  std::sort(merged.begin(), merged.end(), SpoLess);
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (removed) {
    const auto it =
        std::lower_bound(merged.begin(), merged.end(), *removed, SpoLess);
    if (it != merged.end() && *it == *removed) merged.erase(it);
  }

  base_ = FrozenIndex();
  base_ = FrozenIndex::Build(std::move(merged), id_limit, rdf_type);
}

bool TripleStore::DeltaContains(Triple t) const {
  const auto span = DeltaRange(spo_, t.s, t.p);
  return std::binary_search(span.begin(), span.end(), Pair{t.p, t.o},
                            PairLess);
}

bool TripleStore::Contains(Triple t) const {
  return base_.Contains(t) || DeltaContains(t);
}

void TripleStore::DeltaMatch(const TriplePatternIds& pattern,
                             FunctionRef<bool(const Triple&)> fn) const {
  // Choose the index keyed by a bound position; prefer the subject index,
  // then predicate, then object; fall back to a full scan over spo_.
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
  // Full scan. Iterate subjects in ascending id order.
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

void TripleStore::Match(const TriplePatternIds& pattern,
                        FunctionRef<bool(const Triple&)> fn) const {
  if (delta_size_ == 0) {
    base_.Match(pattern, fn);
    return;
  }
  std::vector<Triple> delta;
  DeltaMatch(pattern, [&](const Triple& t) {
    delta.push_back(t);
    return true;
  });
  // Both sides emit in the same order; bound positions compare equal.
  bool (*less)(const Triple&, const Triple&) = SpoLess;
  if (!pattern.s && pattern.p) less = PosLess;
  if (!pattern.s && !pattern.p && pattern.o) less = OspLess;
  MergeVisit<Triple>(
      std::span<const Triple>(delta),
      [](const Triple& t) -> const Triple& { return t; }, less,
      [&](auto&& visit) { base_.Match(pattern, visit); }, fn);
}

std::vector<Triple> TripleStore::MatchAll(
    const TriplePatternIds& pattern) const {
  std::vector<Triple> out;
  Match(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::uint64_t TripleStore::CountEstimate(
    const TriplePatternIds& pattern) const {
  std::uint64_t delta = 0;
  if (!pattern.s && !pattern.p && !pattern.o) {
    delta = delta_size_;
  } else {
    DeltaMatch(pattern, [&](const Triple&) {
      ++delta;
      return true;
    });
  }
  return base_.CountEstimate(pattern) + delta;
}

void TripleStore::ObjectsVisit(TermId s, TermId p,
                               FunctionRef<bool(TermId)> fn) const {
  MergeVisit<TermId>(
      DeltaRange(spo_, s, p), Second, IdLess,
      [&](auto&& visit) {
        for (const TermId o : base_.Objects(s, p)) {
          if (!visit(o)) return;
        }
      },
      fn);
}

void TripleStore::SubjectsVisit(TermId p, TermId o,
                                FunctionRef<bool(TermId)> fn) const {
  MergeVisit<TermId>(
      DeltaRange(pos_, p, o), Second, IdLess,
      [&](auto&& visit) { base_.SubjectsVisit(p, o, visit); }, fn);
}

std::vector<TermId> TripleStore::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  ObjectsVisit(s, p, [&](TermId o) {
    out.push_back(o);
    return true;
  });
  return out;
}

std::vector<TermId> TripleStore::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  SubjectsVisit(p, o, [&](TermId s) {
    out.push_back(s);
    return true;
  });
  return out;
}

std::optional<TermId> TripleStore::FirstObject(TermId s, TermId p) const {
  std::optional<TermId> out;
  ObjectsVisit(s, p, [&](TermId o) {
    out = o;
    return false;
  });
  return out;
}

std::vector<TermId> TripleStore::InstancesOf(TermId type) const {
  const auto rdf_type = terms_.Lookup(MakeIri(std::string(kRdfType)));
  if (!rdf_type) return {};
  return Subjects(*rdf_type, type);
}

}  // namespace scan::kb
