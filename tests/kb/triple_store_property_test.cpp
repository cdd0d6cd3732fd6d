// Property test for the LSM triple store: random interleavings of Add,
// AddBatch and Remove that cross the compaction threshold, with every
// accessor and size() compared against a plain std::set<Triple>. The
// vocabulary keeps growing, so terms interned after a compaction (ids past
// the base's id range) reach the store through the delta.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "scan/common/rng.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::kb {
namespace {

bool SpoLess(const Triple& a, const Triple& b) {
  return std::tuple(Index(a.s), Index(a.p), Index(a.o)) <
         std::tuple(Index(b.s), Index(b.p), Index(b.o));
}

using TripleSet = std::set<Triple, decltype(&SpoLess)>;

/// The expected Match output: matching triples ordered by the unbound
/// positions — (p, o) for a bound subject, (o, s) for a bound predicate,
/// (s, p) for a bound object, (s, p, o) for a full scan.
std::vector<Triple> Expected(const TripleSet& set,
                             const TriplePatternIds& pattern) {
  std::vector<Triple> out;
  for (const Triple& t : set) {
    if (pattern.s && t.s != *pattern.s) continue;
    if (pattern.p && t.p != *pattern.p) continue;
    if (pattern.o && t.o != *pattern.o) continue;
    out.push_back(t);
  }
  auto key = [&](const Triple& t) {
    if (!pattern.s && pattern.p) {
      return std::tuple(Index(t.p), Index(t.o), Index(t.s));
    }
    if (!pattern.s && pattern.o) {
      return std::tuple(Index(t.o), Index(t.s), Index(t.p));
    }
    return std::tuple(Index(t.s), Index(t.p), Index(t.o));
  };
  std::stable_sort(out.begin(), out.end(), [&](const Triple& a,
                                               const Triple& b) {
    return key(a) < key(b);
  });
  return out;
}

std::vector<TermId> Project(const std::vector<Triple>& triples,
                            TermId Triple::*position) {
  std::vector<TermId> out;
  for (const Triple& t : triples) out.push_back(t.*position);
  return out;
}

class LsmModel {
 public:
  LsmModel() : set_(&SpoLess) {
    rdf_type_ = store_.terms().Intern(MakeIri(std::string(kRdfType)));
  }

  /// A triple over a vocabulary that grows with `step`.
  Triple RandomTriple(RandomStream& rng, std::size_t step) {
    const std::uint32_t subjects = 40 + static_cast<std::uint32_t>(step / 8);
    const TermId s = store_.terms().Intern(
        MakeIri("s/" + std::to_string(rng.UniformBelow(subjects))));
    const TermId p =
        rng.UniformBelow(6) == 0
            ? rdf_type_
            : store_.terms().Intern(
                  MakeIri("p/" + std::to_string(rng.UniformBelow(8))));
    const TermId o =
        rng.UniformBelow(2) == 0
            ? store_.terms().Intern(
                  MakeIri("c/" + std::to_string(rng.UniformBelow(12))))
            : store_.terms().Intern(
                  MakeIntLiteral(rng.UniformBelow(subjects)));
    return Triple{s, p, o};
  }

  void Add(Triple t) {
    ASSERT_EQ(store_.Add(t), set_.insert(t).second);
  }

  void AddBatch(const std::vector<Triple>& batch) {
    std::size_t added = 0;
    for (const Triple& t : batch) added += set_.insert(t).second ? 1 : 0;
    ASSERT_EQ(store_.AddBatch(batch), added);
    ASSERT_EQ(store_.delta_size(), 0u);
  }

  void Remove(Triple t) {
    ASSERT_EQ(store_.Remove(t), set_.erase(t) == 1);
  }

  /// A live triple (or an arbitrary one when the store is empty).
  Triple Pick(RandomStream& rng, std::size_t step) {
    if (set_.empty()) return RandomTriple(rng, step);
    auto it = set_.begin();
    std::advance(it, rng.UniformBelow(static_cast<std::uint32_t>(
                         std::min<std::size_t>(set_.size(), 4096))));
    return *it;
  }

  /// Compares every accessor against the set.
  void Check(RandomStream& rng) {
    ASSERT_EQ(store_.size(), set_.size());
    const auto id_limit = static_cast<std::uint32_t>(store_.terms().size());
    auto random_id = [&]() -> std::optional<TermId> {
      if (rng.UniformBelow(4) == 0) return std::nullopt;
      return TermId{1 + rng.UniformBelow(id_limit + 2)};
    };
    ASSERT_EQ(store_.MatchAll({}), Expected(set_, {}));
    for (int i = 0; i < 100; ++i) {
      const TriplePatternIds pattern{random_id(), random_id(), random_id()};
      const std::vector<Triple> expected = Expected(set_, pattern);
      ASSERT_EQ(store_.MatchAll(pattern), expected);

      const TermId a{1 + rng.UniformBelow(id_limit + 2)};
      const TermId b{1 + rng.UniformBelow(id_limit + 2)};
      const TermId c{1 + rng.UniformBelow(id_limit + 2)};
      const std::vector<Triple> sp = Expected(set_, {a, b, std::nullopt});
      ASSERT_EQ(store_.Objects(a, b), Project(sp, &Triple::o));
      ASSERT_EQ(store_.FirstObject(a, b),
                sp.empty() ? std::nullopt : std::optional<TermId>(sp[0].o));
      const std::vector<Triple> po = Expected(set_, {std::nullopt, b, c});
      ASSERT_EQ(store_.Subjects(b, c), Project(po, &Triple::s));
      ASSERT_EQ(store_.InstancesOf(c),
                Project(Expected(set_, {std::nullopt, rdf_type_, c}),
                        &Triple::s));
      ASSERT_EQ(store_.Contains(Triple{a, b, c}),
                set_.count(Triple{a, b, c}) == 1);
    }
  }

  TripleStore& store() { return store_; }

 private:
  TripleStore store_;
  TripleSet set_;
  TermId rdf_type_;
};

TEST(TripleStoreProperty, RandomInterleavingsMatchASetOfTriples) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomStream rng(seed, "lsm-property");
    LsmModel model;
    std::size_t add_compactions = 0;
    std::size_t base_removes = 0;
    std::vector<Triple> recent;
    for (std::size_t step = 0; step < 6000; ++step) {
      // The first phase only adds and removes recent triples, so the delta
      // grows past the compaction threshold; the second mixes in batches
      // and removes anywhere, which compact as well.
      const std::uint32_t op = rng.UniformBelow(step < 4000 ? 95 : 100);
      const std::size_t delta_before = model.store().delta_size();
      if (op < 85) {
        const Triple t = model.RandomTriple(rng, step);
        if (!model.store().base().Contains(t)) recent.push_back(t);
        ASSERT_NO_FATAL_FAILURE(model.Add(t));
        if (model.store().delta_size() < delta_before) {
          ++add_compactions;
          recent.clear();  // removes of these would hit the base
        }
      } else if (op < 95) {
        if (recent.empty()) continue;
        const Triple t = recent[rng.UniformBelow(
            static_cast<std::uint32_t>(recent.size()))];
        if (model.store().base().Contains(t)) ++base_removes;
        ASSERT_NO_FATAL_FAILURE(model.Remove(t));
      } else if (op < 97) {
        ASSERT_NO_FATAL_FAILURE(model.Remove(model.RandomTriple(rng, step)));
      } else if (op < 98) {
        std::vector<Triple> batch;
        const std::uint32_t n = 1 + rng.UniformBelow(300);
        for (std::uint32_t i = 0; i < n; ++i) {
          // Some of the batch is already present.
          batch.push_back(rng.UniformBelow(4) == 0
                              ? model.Pick(rng, step)
                              : model.RandomTriple(rng, step));
        }
        ASSERT_NO_FATAL_FAILURE(model.AddBatch(batch));
      } else {
        const Triple t = model.Pick(rng, step);
        if (model.store().base().Contains(t)) ++base_removes;
        ASSERT_NO_FATAL_FAILURE(model.Remove(t));
      }
      if (step % 500 == 499) {
        ASSERT_NO_FATAL_FAILURE(model.Check(rng));
      }
    }
    EXPECT_GE(add_compactions, 2u);
    EXPECT_GE(base_removes, 1u);

    // Task-log phase: every few adds mint a fresh subject, as
    // KnowledgeBase::RecordTaskLog does, so compactions take the in-place
    // append path — including a subject whose triples straddle one.
    std::size_t appends = 0;
    for (std::size_t log = 0; appends < 3; ++log) {
      const TermId subject = model.store().terms().Intern(
          MakeIri("log/" + std::to_string(seed) + "/" + std::to_string(log)));
      for (int k = 0; k < 9; ++k) {
        Triple t = model.RandomTriple(rng, 6000);
        t.s = subject;
        const std::size_t delta_before = model.store().delta_size();
        ASSERT_NO_FATAL_FAILURE(model.Add(t));
        if (model.store().delta_size() < delta_before) ++appends;
      }
      if (log % 250 == 0) {
        ASSERT_NO_FATAL_FAILURE(model.Check(rng));
      }
    }
    ASSERT_NO_FATAL_FAILURE(model.Check(rng));

    // A term interned after the last compaction lies past the base's id
    // range; it is served from the delta alone.
    model.store().Compact();
    const Triple fresh{
        model.store().terms().Intern(MakeIri("s/after-compaction")),
        model.store().terms().Intern(MakeIri(std::string(kRdfType))),
        model.store().terms().Intern(MakeIri("c/after-compaction"))};
    ASSERT_NO_FATAL_FAILURE(model.Add(fresh));
    EXPECT_EQ(model.store().delta_size(), 1u);
    ASSERT_NO_FATAL_FAILURE(model.Check(rng));

    // Removing a base triple compacts, and the fresh delta triple survives.
    const Triple base_triple = model.Pick(rng, 0);
    ASSERT_TRUE(model.store().base().Contains(base_triple) ||
                base_triple == fresh);
    ASSERT_NO_FATAL_FAILURE(model.Remove(base_triple));
    ASSERT_NO_FATAL_FAILURE(model.Check(rng));
  }
}

}  // namespace
}  // namespace scan::kb
