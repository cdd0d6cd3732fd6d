#include "scan/kb/frozen_index.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace scan::kb {

namespace {

/// Hash of a predicate signature (for characteristic-set grouping).
struct SigHash {
  std::size_t operator()(const std::vector<TermId>& sig) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const TermId id : sig) {
      h ^= Index(id);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

bool IdLess(TermId a, TermId b) { return Index(a) < Index(b); }

}  // namespace

FrozenIndex FrozenIndex::Build(std::vector<Triple> triples,
                               std::uint32_t id_limit, TermId rdf_type) {
  FrozenIndex out;
  out.Append(std::move(triples), id_limit, rdf_type);
  return out;
}

bool FrozenIndex::AppendsAt(TermId s) const {
  return subjects_.empty() || Index(subjects_.back()) <= Index(s);
}

void FrozenIndex::Append(std::vector<Triple> triples, std::uint32_t id_limit,
                         TermId rdf_type) {
  assert(triples.empty() || AppendsAt(triples.front().s));
  // Arrays are sized exactly before they are filled, and nothing built by
  // an earlier call is copied whole: the base is extended on every
  // compaction, so growth slack and transient copies would set the KB's
  // memory high-water mark.
  const std::size_t n = triples.size();

  // 1. Subject-major: the new subjects sort after every present one, so
  //    their rows append. Characteristic sets gain members or new sets.
  std::size_t new_subjects = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || triples[i].s != triples[i - 1].s) ++new_subjects;
  }
  subject_row_.resize(std::max<std::size_t>(subject_row_.size(), id_limit),
                      kNoRow);
  subjects_.reserve(subjects_.size() + new_subjects);
  subject_charset_.reserve(subject_charset_.size() + new_subjects);
  subject_begin_.reserve(subjects_.size() + new_subjects + 1);
  if (subject_begin_.empty()) subject_begin_.push_back(0);  // end sentinel
  std::unordered_map<std::vector<TermId>, std::uint32_t, SigHash> charset_ids;
  for (std::uint32_t k = 0; k < charsets_.size(); ++k) {
    charset_ids.emplace(charsets_[k].predicates, k);
  }
  std::vector<TermId> signature;
  // Appends one subject's row; [first, last) is sorted by (p, o).
  auto append_row = [&](TermId s, const Triple* first, const Triple* last) {
    const auto run = static_cast<std::size_t>(last - first);
    if (chunks_.empty() || chunks_.back().preds.size() + run > kChunkTriples) {
      chunks_.emplace_back();
      chunks_.back().preds.reserve(std::max(kChunkTriples, run));
      chunks_.back().objects.reserve(std::max(kChunkTriples, run));
    }
    const auto begin = static_cast<std::uint32_t>(
        ((chunks_.size() - 1) << kChunkShift) + chunks_.back().preds.size());
    signature.clear();
    for (const Triple* t = first; t != last; ++t) {
      chunks_.back().preds.push_back(t->p);
      chunks_.back().objects.push_back(t->o);
      if (signature.empty() || signature.back() != t->p) {
        signature.push_back(t->p);
      }
    }
    subject_row_[Index(s)] = static_cast<std::uint32_t>(subjects_.size());
    subjects_.push_back(s);
    subject_begin_.back() = begin;  // the old end sentinel
    subject_begin_.push_back(static_cast<std::uint32_t>(begin + run));
    const auto [it, inserted] = charset_ids.try_emplace(
        signature, static_cast<std::uint32_t>(charsets_.size()));
    if (inserted) charsets_.push_back(CharacteristicSet{signature, 0});
    ++charsets_[it->second].subject_count;
    subject_charset_.push_back(it->second);
  };
  std::size_t i = 0;
  if (n > 0 && !subjects_.empty() && triples[0].s == subjects_.back()) {
    // The last subject's triples straddled the previous compaction: reopen
    // its row (the tail of the last chunk) and merge the new triples in.
    const TermId s = subjects_.back();
    const Run run = RowRun(static_cast<std::uint32_t>(subjects_.size() - 1));
    std::vector<Triple> row;
    for (std::size_t k = 0; k < run.size; ++k) {
      row.push_back(Triple{s, run.preds[k], run.objects[k]});
    }
    for (; i < n && triples[i].s == s; ++i) row.push_back(triples[i]);
    std::inplace_merge(row.begin(), row.begin() + static_cast<long>(run.size),
                       row.end(), [](const Triple& a, const Triple& b) {
                         return std::pair(Index(a.p), Index(a.o)) <
                                std::pair(Index(b.p), Index(b.o));
                       });
    --charsets_[subject_charset_.back()].subject_count;
    subject_charset_.pop_back();
    subjects_.pop_back();
    subject_begin_.pop_back();
    chunks_.back().preds.resize(chunks_.back().preds.size() - run.size);
    chunks_.back().objects.resize(chunks_.back().objects.size() - run.size);
    append_row(s, row.data(), row.data() + row.size());
  }
  while (i < n) {
    std::size_t end = i;
    while (end < n && triples[end].s == triples[i].s) ++end;
    append_row(triples[i].s, triples.data() + i, triples.data() + end);
    i = end;
  }

  // 2. Predicate-major: per predicate, merge every (p, o) subject list with
  //    the new subjects for (p, o) — which all sort after the old ones.
  //    One predicate is rebuilt and its old storage released at a time.
  std::sort(triples.begin(), triples.end(),
            [](const Triple& a, const Triple& b) {
              if (a.p != b.p) return Index(a.p) < Index(b.p);
              if (a.o != b.o) return Index(a.o) < Index(b.o);
              return Index(a.s) < Index(b.s);
            });
  std::vector<PredEntry> old_preds;
  old_preds.swap(preds_);
  std::vector<bool> object_seen(subject_row_.size(), false);
  stats_.objects = 0;
  stats_.compressed_postings_bytes = 0;
  std::size_t k = 0;
  for (i = 0; k < old_preds.size() || i < n;) {
    const bool old_first =
        i == n || (k < old_preds.size() &&
                   Index(old_preds[k].id) <= Index(triples[i].p));
    const TermId p = old_first ? old_preds[k].id : triples[i].p;
    PredEntry* old =
        k < old_preds.size() && old_preds[k].id == p ? &old_preds[k++]
                                                     : nullptr;
    std::size_t end = i;
    while (end < n && triples[end].p == p) ++end;
    preds_.push_back(MergePredicate(p, old, triples.data() + i,
                                    triples.data() + end, object_seen));
    if (old != nullptr) *old = PredEntry();
    i = end;
  }
  old_preds = {};
  triples = {};
  // Distinct subjects per predicate: every characteristic set holding p.
  for (const CharacteristicSet& cs : charsets_) {
    for (const TermId p : cs.predicates) {
      std::lower_bound(preds_.begin(), preds_.end(), p,
                       [](const PredEntry& e, TermId id) {
                         return Index(e.id) < Index(id);
                       })
          ->distinct_subjects += cs.subject_count;
    }
  }

  // 3. Dedicated type index: uncompressed instance spans per rdf:type
  //    object.
  type_ids_.clear();
  type_begin_.clear();
  type_instances_ = {};
  if (const PredEntry* entry = Pred(rdf_type)) {
    type_ids_ = entry->objects;
    type_begin_.reserve(entry->objects.size() + 1);
    type_instances_.reserve(entry->triple_count);
    for (std::uint32_t list = 0; list < entry->objects.size(); ++list) {
      type_begin_.push_back(static_cast<std::uint32_t>(type_instances_.size()));
      entry->postings.Get(list).ForEach([&](std::uint32_t s) {
        type_instances_.push_back(TermId{s});
        return true;
      });
    }
    type_begin_.push_back(static_cast<std::uint32_t>(type_instances_.size()));
  }

  stats_.triples += n;
  stats_.subjects = subjects_.size();
  stats_.predicates = preds_.size();
  stats_.characteristic_sets = charsets_.size();
  stats_.raw_posting_values = stats_.triples;
}

FrozenIndex::PredEntry FrozenIndex::MergePredicate(
    TermId p, PredEntry* old, const Triple* begin, const Triple* end,
    std::vector<bool>& object_seen) {
  // Walks the merged (o, subjects) lists: list(o, old subjects, new run).
  auto walk = [&](auto&& list) {
    std::uint32_t j = 0;
    for (const Triple* t = begin;;) {
      const bool has_old = old != nullptr && j < old->objects.size();
      const bool has_new = t != end;
      if (!has_old && !has_new) return;
      const bool from_old =
          has_old && (!has_new || !IdLess(t->o, old->objects[j]));
      const TermId o = from_old ? old->objects[j] : t->o;
      const CompressedPostings old_list =
          from_old ? old->postings.Get(j++) : CompressedPostings();
      const Triple* run = t;
      while (t != end && t->o == o) ++t;
      list(o, old_list, run, t);
    }
  };
  PredEntry entry;
  entry.id = p;
  std::size_t lists = 0;
  walk([&](TermId, const CompressedPostings&, const Triple*, const Triple*) {
    ++lists;
  });
  entry.objects.reserve(lists);
  entry.postings.Reserve(lists);
  std::vector<std::uint32_t> subjects;
  walk([&](TermId o, const CompressedPostings& old_list, const Triple* run,
           const Triple* run_end) {
    entry.objects.push_back(o);
    if (!object_seen[Index(o)]) {
      object_seen[Index(o)] = true;
      ++stats_.objects;
    }
    subjects.clear();
    old_list.AppendTo(subjects);
    for (; run != run_end; ++run) subjects.push_back(Index(run->s));
    entry.triple_count += subjects.size();
    (void)entry.postings.Add(subjects.data(), subjects.size());
  });
  entry.postings.ShrinkToFit();
  stats_.compressed_postings_bytes += entry.postings.byte_size();
  return entry;
}

std::uint32_t FrozenIndex::SubjectRow(TermId s) const {
  const std::uint32_t raw = Index(s);
  if (raw >= subject_row_.size()) return kNoRow;
  return subject_row_[raw];
}

FrozenIndex::Run FrozenIndex::RowRun(std::uint32_t row) const {
  const std::uint32_t begin = subject_begin_[row];
  const std::uint32_t next = subject_begin_[row + 1];
  const Chunk& chunk = chunks_[begin >> kChunkShift];
  const std::size_t offset = begin & (kChunkTriples - 1);
  // A row ends where the next starts, unless the next opened a chunk.
  const std::size_t size = (next >> kChunkShift) == (begin >> kChunkShift)
                               ? next - begin
                               : chunk.preds.size() - offset;
  return Run{chunk.preds.data() + offset, chunk.objects.data() + offset, size};
}

const FrozenIndex::PredEntry* FrozenIndex::Pred(TermId p) const {
  const auto it = std::lower_bound(
      preds_.begin(), preds_.end(), p,
      [](const PredEntry& e, TermId id) { return Index(e.id) < Index(id); });
  if (it == preds_.end() || it->id != p) return nullptr;
  return &*it;
}

CompressedPostings FrozenIndex::Postings(const PredEntry& entry, TermId o) {
  const auto it =
      std::lower_bound(entry.objects.begin(), entry.objects.end(), o, IdLess);
  if (it == entry.objects.end() || *it != o) return {};
  return entry.postings.Get(
      static_cast<std::uint32_t>(it - entry.objects.begin()));
}

std::span<const TermId> FrozenIndex::Objects(TermId s, TermId p) const {
  const std::uint32_t row = SubjectRow(s);
  if (row == kNoRow) return {};
  // The subject's predicates are sorted; p's run indexes its objects.
  const Run run = RowRun(row);
  const auto [lo, hi] =
      std::equal_range(run.preds, run.preds + run.size, p, IdLess);
  return {run.objects + (lo - run.preds), static_cast<std::size_t>(hi - lo)};
}

std::optional<TermId> FrozenIndex::FirstObject(TermId s, TermId p) const {
  const auto span = Objects(s, p);
  if (span.empty()) return std::nullopt;
  return span.front();
}

std::span<const TermId> FrozenIndex::InstancesOf(TermId type) const {
  const auto it =
      std::lower_bound(type_ids_.begin(), type_ids_.end(), type, IdLess);
  if (it == type_ids_.end() || *it != type) return {};
  const auto row = static_cast<std::size_t>(it - type_ids_.begin());
  return {type_instances_.data() + type_begin_[row],
          type_begin_[row + 1] - type_begin_[row]};
}

bool FrozenIndex::Contains(Triple t) const {
  const auto objects = Objects(t.s, t.p);
  return std::binary_search(objects.begin(), objects.end(), t.o, IdLess);
}

void FrozenIndex::SubjectsVisit(TermId p, TermId o,
                                FunctionRef<bool(TermId)> fn) const {
  const PredEntry* entry = Pred(p);
  if (entry == nullptr) return;
  Postings(*entry, o).ForEach([&](std::uint32_t s) { return fn(TermId{s}); });
}

std::vector<TermId> FrozenIndex::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  out.reserve(SubjectCount(p, o));
  SubjectsVisit(p, o, [&](TermId s) {
    out.push_back(s);
    return true;
  });
  return out;
}

std::size_t FrozenIndex::SubjectCount(TermId p, TermId o) const {
  const PredEntry* entry = Pred(p);
  return entry == nullptr ? 0 : Postings(*entry, o).size();
}

void FrozenIndex::Match(const TriplePatternIds& pattern,
                        FunctionRef<bool(const Triple&)> fn) const {
  // Index choice: subject first, then predicate, then object, then a full
  // scan; each emits in the order the file comment documents.
  if (pattern.s) {
    const std::uint32_t row = SubjectRow(*pattern.s);
    if (row == kNoRow) return;
    const Run run = RowRun(row);
    for (std::size_t k = 0; k < run.size; ++k) {
      const TermId p = run.preds[k];
      const TermId o = run.objects[k];
      if (pattern.p && !(p == *pattern.p)) continue;
      if (pattern.o && !(o == *pattern.o)) continue;
      if (!fn(Triple{*pattern.s, p, o})) return;
    }
    return;
  }
  if (pattern.p) {
    const PredEntry* entry = Pred(*pattern.p);
    if (entry == nullptr) return;
    if (pattern.o) {
      bool keep_going = true;
      SubjectsVisit(*pattern.p, *pattern.o, [&](TermId s) {
        keep_going = fn(Triple{s, *pattern.p, *pattern.o});
        return keep_going;
      });
      return;
    }
    for (std::size_t k = 0; k < entry->objects.size(); ++k) {
      const TermId o = entry->objects[k];
      bool keep_going = true;
      entry->postings.Get(static_cast<std::uint32_t>(k))
          .ForEach([&](std::uint32_t s) {
        keep_going = fn(Triple{TermId{s}, *pattern.p, o});
        return keep_going;
      });
      if (!keep_going) return;
    }
    return;
  }
  if (pattern.o) {
    // Gather (s, p) from every predicate's posting for o, then emit in
    // (s, p) order.
    std::vector<Triple> hits;
    for (const PredEntry& entry : preds_) {
      Postings(entry, *pattern.o).ForEach([&](std::uint32_t s) {
        hits.push_back(Triple{TermId{s}, entry.id, *pattern.o});
        return true;
      });
    }
    std::sort(hits.begin(), hits.end(), [](const Triple& a, const Triple& b) {
      if (a.s != b.s) return Index(a.s) < Index(b.s);
      return Index(a.p) < Index(b.p);
    });
    for (const Triple& t : hits) {
      if (!fn(t)) return;
    }
    return;
  }
  // Full scan, ascending subject id (subjects_ is already sorted).
  for (std::uint32_t row = 0; row < subjects_.size(); ++row) {
    const TermId s = subjects_[row];
    const Run run = RowRun(row);
    for (std::size_t k = 0; k < run.size; ++k) {
      if (!fn(Triple{s, run.preds[k], run.objects[k]})) return;
    }
  }
}

std::vector<Triple> FrozenIndex::MatchAll(
    const TriplePatternIds& pattern) const {
  std::vector<Triple> out;
  Match(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::uint64_t FrozenIndex::CountEstimate(
    const TriplePatternIds& pattern) const {
  if (pattern.s && pattern.p && pattern.o) {
    return Contains(Triple{*pattern.s, *pattern.p, *pattern.o}) ? 1 : 0;
  }
  if (pattern.s && pattern.p) return Objects(*pattern.s, *pattern.p).size();
  if (pattern.p && pattern.o) return SubjectCount(*pattern.p, *pattern.o);
  if (pattern.s) {
    const std::uint32_t row = SubjectRow(*pattern.s);
    if (row == kNoRow) return 0;
    // (s, ?, o): bound below by the subject's full degree.
    return RowRun(row).size;
  }
  if (pattern.p) {
    const PredEntry* entry = Pred(*pattern.p);
    return entry == nullptr ? 0 : entry->triple_count;
  }
  if (pattern.o) {
    std::uint64_t count = 0;
    for (const PredEntry& entry : preds_) {
      count += Postings(entry, *pattern.o).size();
    }
    return count;
  }
  return stats_.triples;
}

std::uint64_t FrozenIndex::CountSubjectsWithPredicates(
    std::span<const TermId> predicates) const {
  std::vector<TermId> sorted(predicates.begin(), predicates.end());
  std::sort(sorted.begin(), sorted.end(),
            [](TermId a, TermId b) { return Index(a) < Index(b); });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::uint64_t count = 0;
  for (const CharacteristicSet& cs : charsets_) {
    if (std::includes(cs.predicates.begin(), cs.predicates.end(),
                      sorted.begin(), sorted.end(),
                      [](TermId a, TermId b) {
                        return Index(a) < Index(b);
                      })) {
      count += cs.subject_count;
    }
  }
  return count;
}

}  // namespace scan::kb
