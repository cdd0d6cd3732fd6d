// Randomized differential fuzz: the LSM TripleStore (frozen base + delta),
// its FrozenIndex base, the query engine and the KnowledgeBase read paths
// against the testkit reference oracle (scan/testkit/kb_reference.hpp).
// Reference stores either replay the same operations (same interning
// order, so the same ids) or mirror a store's terms and triples, so every
// answer must be id-identical — pattern scans in the exact reference
// emission order, broker accessors element-for-element, SPARQL solution
// multisets query-for-query, and AdviseShardSize bit-for-bit.
//
// The suites run under ASan/UBSan/TSan in CI (see .github/workflows/ci.yml);
// the concurrency test at the bottom exercises the store's concurrent-read
// contract under TSan.

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "scan/common/rng.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"
#include "scan/testkit/kb_reference.hpp"

namespace scan::kb {
namespace {

using testkit::ReferenceAdviseShardSize;
using testkit::ReferenceAdviseThreads;
using testkit::ReferenceProfiles;
using testkit::ReferenceQueryEngine;
using testkit::ReferenceStore;

/// Small closed vocabularies keep the graphs dense enough that random
/// patterns actually hit postings (and produce repeated-id collisions).
Term RandomSubject(RandomStream& rng) {
  return MakeIri("s/" + std::to_string(rng.UniformBelow(30)));
}

Term RandomPredicate(RandomStream& rng) {
  if (rng.UniformBelow(8) == 0) return MakeIri(std::string(kRdfType));
  return MakeIri("p/" + std::to_string(rng.UniformBelow(8)));
}

Term RandomObject(RandomStream& rng) {
  switch (rng.UniformBelow(4)) {
    case 0:
      return MakeIri("s/" + std::to_string(rng.UniformBelow(30)));
    case 1:
      return MakeIri("c/" + std::to_string(rng.UniformBelow(5)));
    case 2:
      return MakeIntLiteral(static_cast<int>(rng.UniformBelow(20)));
    default:
      return MakeDoubleLiteral(0.5 * (1 + rng.UniformBelow(10)));
  }
}

/// A store and its reference, driven through the same operations.
struct Twin {
  TripleStore store;
  ReferenceStore reference;

  void Add(const Term& s, const Term& p, const Term& o) {
    EXPECT_EQ(store.Add(s, p, o), reference.Add(s, p, o));
  }
  void Remove(Triple t) { EXPECT_EQ(store.Remove(t), reference.Remove(t)); }
};

/// Builds a random store: adds, a compaction, removes that punch holes in
/// the base, then more adds and removes that stay in the delta.
void FillRandom(Twin& pair, std::uint64_t seed, std::size_t triples) {
  RandomStream rng(seed, "differential/store");
  auto remove_some = [&](bool delta_only) {
    const std::vector<Triple> live = pair.reference.MatchAll({});
    for (std::size_t i = 0; i < triples / 20; ++i) {
      const Triple t =
          live[rng.UniformBelow(static_cast<std::uint32_t>(live.size()))];
      if (delta_only && pair.store.base().Contains(t)) continue;
      pair.Remove(t);
    }
  };
  for (std::size_t i = 0; i < triples / 2; ++i) {
    pair.Add(RandomSubject(rng), RandomPredicate(rng), RandomObject(rng));
  }
  pair.store.Compact();
  remove_some(false);
  for (std::size_t i = triples / 2; i < triples; ++i) {
    pair.Add(RandomSubject(rng), RandomPredicate(rng), RandomObject(rng));
  }
  remove_some(true);
}

/// A random id biased toward ids that exist in the store (plus a few
/// absent / out-of-range ids to probe the miss paths).
std::optional<TermId> RandomPosition(RandomStream& rng,
                                     const TripleStore& store) {
  switch (rng.UniformBelow(6)) {
    case 0:
      return std::nullopt;  // wildcard
    case 1:
      return TermId{1 + rng.UniformBelow(
                 static_cast<std::uint32_t>(store.terms().size() + 8))};
    default:
      return TermId{1 + rng.UniformBelow(
                 static_cast<std::uint32_t>(store.terms().size()))};
  }
}

TEST(FrozenDifferential, MatchOrderAndAccessorsAgreeWithLegacy) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    Twin pair;
    FillRandom(pair, seed, 600);
    const TripleStore& store = pair.store;
    const ReferenceStore& reference = pair.reference;
    ASSERT_GT(store.delta_size(), 0u);
    ASSERT_EQ(store.size(), reference.size()) << "seed=" << seed;

    // The base alone agrees with a mirror of itself once compacted.
    TripleStore compacted = store;
    compacted.Compact();
    const FrozenIndex& frozen = compacted.base();
    ASSERT_EQ(frozen.size(), reference.size());

    RandomStream rng(seed, "differential/patterns");
    for (int i = 0; i < 300; ++i) {
      const TriplePatternIds pattern{RandomPosition(rng, store),
                                     RandomPosition(rng, store),
                                     RandomPosition(rng, store)};
      ASSERT_EQ(store.MatchAll(pattern), reference.MatchAll(pattern))
          << "seed=" << seed << " iter=" << i;
      ASSERT_EQ(frozen.MatchAll(pattern), reference.MatchAll(pattern))
          << "seed=" << seed << " iter=" << i;
    }

    for (int i = 0; i < 300; ++i) {
      const TermId s{1 + rng.UniformBelow(
          static_cast<std::uint32_t>(store.terms().size() + 4))};
      const TermId p{1 + rng.UniformBelow(
          static_cast<std::uint32_t>(store.terms().size() + 4))};
      ASSERT_EQ(store.Objects(s, p), reference.Objects(s, p))
          << "seed=" << seed;
      const auto frozen_objects = frozen.Objects(s, p);
      ASSERT_EQ(std::vector<TermId>(frozen_objects.begin(),
                                    frozen_objects.end()),
                reference.Objects(s, p));
      ASSERT_EQ(store.FirstObject(s, p), reference.FirstObject(s, p));
      ASSERT_EQ(frozen.FirstObject(s, p), reference.FirstObject(s, p));
      ASSERT_EQ(store.Subjects(p, s), reference.Subjects(p, s));
      ASSERT_EQ(frozen.Subjects(p, s), reference.Subjects(p, s));
      ASSERT_EQ(frozen.SubjectCount(p, s), reference.Subjects(p, s).size());
      ASSERT_EQ(store.InstancesOf(s), reference.InstancesOf(s));
      const auto frozen_instances = frozen.InstancesOf(s);
      ASSERT_EQ(std::vector<TermId>(frozen_instances.begin(),
                                    frozen_instances.end()),
                reference.InstancesOf(s));
      ASSERT_EQ(store.Contains(Triple{s, p, s}),
                reference.Contains(Triple{s, p, s}));
      ASSERT_EQ(frozen.Contains(Triple{s, p, s}),
                reference.Contains(Triple{s, p, s}));
    }

    // CountEstimate is exact on constants-only patterns.
    for (int i = 0; i < 100; ++i) {
      const TriplePatternIds pattern{RandomPosition(rng, store),
                                     RandomPosition(rng, store),
                                     RandomPosition(rng, store)};
      const std::size_t exact = reference.MatchAll(pattern).size();
      if (pattern.s && !pattern.p && pattern.o) {
        // (s, ?, o) is estimated by the subject's degree: an upper bound.
        ASSERT_GE(frozen.CountEstimate(pattern), exact);
        ASSERT_GE(store.CountEstimate(pattern), exact);
      } else {
        ASSERT_EQ(frozen.CountEstimate(pattern), exact) << "seed=" << seed;
        ASSERT_EQ(store.CountEstimate(pattern), exact) << "seed=" << seed;
      }
    }
  }
}

TEST(FrozenDifferential, FreezeAfterMutationTracksTheStore) {
  RandomStream rng(77, "differential/mutation");
  Twin pair;
  for (int round = 0; round < 6; ++round) {
    // Mutate: a mix of single adds, batch adds, and removes.
    std::vector<Triple> staged;
    for (int i = 0; i < 120; ++i) {
      const Term s = RandomSubject(rng);
      const Term p = RandomPredicate(rng);
      const Term o = RandomObject(rng);
      if (rng.UniformBelow(2) == 0) {
        pair.Add(s, p, o);
      } else {
        // Intern in the same order on both sides: ids stay shared.
        staged.push_back(Triple{pair.store.terms().Intern(s),
                                pair.store.terms().Intern(p),
                                pair.store.terms().Intern(o)});
        ASSERT_EQ(pair.reference.terms().Intern(s), staged.back().s);
        ASSERT_EQ(pair.reference.terms().Intern(p), staged.back().p);
        ASSERT_EQ(pair.reference.terms().Intern(o), staged.back().o);
      }
    }
    pair.store.AddBatch(staged);
    for (const Triple& t : staged) pair.reference.Add(t);
    ASSERT_EQ(pair.store.delta_size(), 0u);
    const std::vector<Triple> live = pair.reference.MatchAll({});
    for (int i = 0; i < 25 && !live.empty(); ++i) {
      pair.Remove(live[rng.UniformBelow(static_cast<std::uint32_t>(live.size()))]);
    }

    ASSERT_EQ(pair.store.size(), pair.reference.size()) << "round=" << round;
    ASSERT_EQ(pair.store.MatchAll({}), pair.reference.MatchAll({}));
    pair.store.Compact();
    ASSERT_EQ(pair.store.base().MatchAll({}), pair.reference.MatchAll({}));
  }
}

/// Renders solution rows order-insensitively.
std::vector<std::string> SortedRows(const ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string key;
    for (const auto& cell : row) {
      key += cell ? ToString(*cell) : std::string("UNBOUND");
      key += '\x1f';
    }
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A random profile on quantized lattices: ties and shared literals.
ApplicationProfile RandomProfile(RandomStream& rng,
                                 const std::vector<std::string>& apps) {
  ApplicationProfile p;
  p.application = apps[rng.UniformBelow(static_cast<std::uint32_t>(apps.size()))];
  p.input_file_size_gb = 0.5 * (1 + rng.UniformBelow(8));
  p.etime = 2.0 * (1 + rng.UniformBelow(6));
  p.threads = 1 + static_cast<int>(rng.UniformBelow(4));
  p.stage = static_cast<int>(rng.UniformBelow(3));
  if (rng.UniformBelow(2) == 0) p.cpu = 4 << rng.UniformBelow(3);
  if (rng.UniformBelow(3) == 0) p.ram_gb = 8.0 * (1 + rng.UniformBelow(4));
  return p;
}

/// The SPARQL shapes the differential suites run, per application.
std::vector<std::string> DifferentialQueries(
    const std::vector<std::string>& apps) {
  std::vector<std::string> queries;
  for (const std::string& app : apps) {
    queries.push_back(
        "SELECT ?ind ?size ?etime WHERE { ?ind a scan:Application . ?ind "
        "scan:application \"" + app + "\" . ?ind scan:inputFileSize ?size "
        ". ?ind scan:eTime ?etime . }");
    queries.push_back(
        "SELECT ?ind ?cpu WHERE { ?ind scan:application \"" + app +
        "\" . OPTIONAL { ?ind scan:CPU ?cpu . } FILTER(BOUND(?cpu) || "
        "!BOUND(?cpu)) }");
  }
  queries.push_back(
      "SELECT ?ind WHERE { { ?ind scan:application \"GATK\" . ?ind "
      "scan:threads ?t . FILTER(?t >= 2) } UNION { ?ind scan:application "
      "\"BWA\" . } }");
  queries.push_back(
      "SELECT DISTINCT ?size WHERE { ?ind scan:inputFileSize ?size . }");
  queries.push_back(
      "SELECT ?app (COUNT(*) AS ?n) (MIN(?etime) AS ?best) WHERE { ?ind "
      "scan:application ?app . ?ind scan:eTime ?etime . } GROUP BY ?app");
  queries.push_back(
      "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . ?ind "
      "scan:threads ?t . FILTER(?t < 3) } ORDER BY ASC(?etime) ASC(?ind) "
      "LIMIT 20");
  return queries;
}

TEST(FrozenDifferential, SparqlResultSetsAgreeOnRandomProfileGraphs) {
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    RandomStream rng(seed, "differential/profiles");
    KnowledgeBase kb;
    const std::vector<std::string> apps = {"GATK", "BWA", "SAMtools"};
    for (int i = 0; i < 60; ++i) {
      kb.AddProfile(RandomProfile(rng, apps));
      if (i == 30) (void)kb.Freeze();  // the rest stays in the delta
    }
    ASSERT_FALSE(kb.FrozenFresh());
    const ReferenceStore reference = ReferenceStore::Mirror(kb.store());
    const ReferenceQueryEngine legacy(reference);

    const std::string prefixes = KnowledgeBase::QueryPrefixes();
    for (const std::string& body : DifferentialQueries(apps)) {
      const std::string text = prefixes + body;
      const auto a = legacy.Execute(text);
      const auto b = kb.Query(text);
      ASSERT_TRUE(a.ok()) << a.status().ToString() << "\n" << body;
      ASSERT_TRUE(b.ok()) << b.status().ToString() << "\n" << body;
      ASSERT_EQ(a.value().variables, b.value().variables) << body;
      ASSERT_EQ(SortedRows(a.value()), SortedRows(b.value()))
          << "seed=" << seed << "\n" << body;
    }
  }
}

/// Field-equal advice, NotFound messages included.
void ExpectSameAdvice(const Result<ShardAdvice>& a,
                      const Result<ShardAdvice>& b, const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << " reference=" << a.status().ToString()
                            << " kb=" << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << what;
    return;
  }
  EXPECT_EQ(a.value().shard_size_gb, b.value().shard_size_gb) << what;
  EXPECT_EQ(a.value().time_per_gb, b.value().time_per_gb) << what;
  EXPECT_EQ(a.value().source_individual, b.value().source_individual)
      << what;
  EXPECT_EQ(a.value().recommended_cpu, b.value().recommended_cpu) << what;
  EXPECT_EQ(a.value().recommended_ram_gb, b.value().recommended_ram_gb)
      << what;
}

void ExpectSameProfiles(const std::vector<ApplicationProfile>& a,
                        const std::vector<ApplicationProfile>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].individual, b[i].individual) << what;
    EXPECT_EQ(a[i].stage, b[i].stage) << what;
    EXPECT_EQ(a[i].input_file_size_gb, b[i].input_file_size_gb) << what;
    EXPECT_EQ(a[i].steps, b[i].steps) << what;
    EXPECT_EQ(a[i].etime, b[i].etime) << what;
    EXPECT_EQ(a[i].threads, b[i].threads) << what;
    EXPECT_EQ(a[i].cpu, b[i].cpu) << what;
    EXPECT_EQ(a[i].ram_gb, b[i].ram_gb) << what;
    EXPECT_EQ(a[i].performance, b[i].performance) << what;
  }
}

TEST(FrozenDifferential, BrokerAdvicePathsAreBitIdentical) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    RandomStream rng(seed, "differential/advice");
    std::vector<ApplicationProfile> profiles;
    const std::vector<std::string> apps = {"GATK", "BWA"};
    for (int i = 0; i < 80; ++i) {
      ApplicationProfile p;
      p.application = apps[rng.UniformBelow(2)];
      // Heavy quantization: many profiles tie on (etime / size) so the
      // advice paths must agree on tie-breaking, not just scoring.
      p.input_file_size_gb = 1.0 * (1 + rng.UniformBelow(4));
      p.etime = 4.0 * (1 + rng.UniformBelow(3));
      if (rng.UniformBelow(2) == 0) p.cpu = 8;
      if (rng.UniformBelow(2) == 0) p.ram_gb = 16.0;
      profiles.push_back(p);
    }

    // One KB serves from the delta, one from a bulk-built base.
    KnowledgeBase delta_kb;
    for (const auto& p : profiles) delta_kb.AddProfile(p);
    KnowledgeBase base_kb;
    base_kb.AddProfilesBulk(profiles);
    ASSERT_TRUE(base_kb.FrozenFresh());
    ASSERT_FALSE(delta_kb.FrozenFresh());
    const ReferenceStore reference = ReferenceStore::Mirror(delta_kb.store());

    for (const std::string& app : apps) {
      for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
               {0.5, 10.0}, {2.0, 3.0}, {3.5, 4.0}, {9.0, 9.5}}) {
        const std::string what = "seed=" + std::to_string(seed) + " app=" +
                                 app + " [" + std::to_string(lo) + "," +
                                 std::to_string(hi) + "]";
        const auto expected = ReferenceAdviseShardSize(reference, app, lo, hi);
        ExpectSameAdvice(expected, delta_kb.AdviseShardSize(app, lo, hi),
                         what);
        ExpectSameAdvice(expected, base_kb.AdviseShardSize(app, lo, hi), what);
      }
      const auto expected = ReferenceProfiles(reference, app);
      ExpectSameProfiles(expected, delta_kb.Profiles(app), app);
      ExpectSameProfiles(expected, base_kb.Profiles(app), app);
    }
  }
}

// One KnowledgeBase through the broker's feedback loop: task logs
// interleaved with every read path across several compactions, each read
// checked against the reference oracle over a mirror of the store. An
// application first seen after a compaction is visible through the delta
// alone.
TEST(FrozenDifferential, FeedbackLoopAgreesAcrossCompactions) {
  RandomStream rng(4242, "differential/feedback");
  const std::vector<std::string> apps = {"GATK", "BWA", "SAMtools"};
  KnowledgeBase kb;
  std::vector<ApplicationProfile> bootstrap;
  for (int i = 0; i < 150; ++i) bootstrap.push_back(RandomProfile(rng, apps));
  kb.AddProfilesBulk(bootstrap);

  const std::string prefixes = KnowledgeBase::QueryPrefixes();
  const std::vector<std::string> queries = DifferentialQueries(apps);
  std::size_t compactions = 0;
  bool cold_start_checked = false;
  std::vector<std::string> live_apps = apps;
  for (int step = 0; step < 450; ++step) {
    const std::size_t delta_before = kb.store().delta_size();
    kb.RecordTaskLog(RandomProfile(rng, live_apps));
    if (kb.store().delta_size() < delta_before) ++compactions;

    // Right after the second compaction a new tool appears: its name
    // literal is interned after the base was built.
    if (compactions == 2 && !cold_start_checked) {
      const ReferenceStore before = ReferenceStore::Mirror(kb.store());
      ExpectSameAdvice(ReferenceAdviseShardSize(before, "NewTool", 0.5, 10.0),
                       kb.AdviseShardSize("NewTool", 0.5, 10.0),
                       "cold start before");
      EXPECT_FALSE(kb.AdviseShardSize("NewTool", 0.5, 10.0).ok());
      ApplicationProfile cold = RandomProfile(rng, {"NewTool"});
      cold.input_file_size_gb = 2.0;
      kb.RecordTaskLog(cold);
      ASSERT_FALSE(kb.FrozenFresh());
      const ReferenceStore after = ReferenceStore::Mirror(kb.store());
      const auto advice = kb.AdviseShardSize("NewTool", 0.5, 10.0);
      ASSERT_TRUE(advice.ok()) << advice.status().ToString();
      ExpectSameAdvice(ReferenceAdviseShardSize(after, "NewTool", 0.5, 10.0),
                       advice, "cold start after");
      live_apps.push_back("NewTool");
      cold_start_checked = true;
    }
    if (step % 15 != 0) continue;

    const ReferenceStore reference = ReferenceStore::Mirror(kb.store());
    ASSERT_EQ(reference.size(), kb.store().size());
    for (const std::string& app : live_apps) {
      const std::string what = "step=" + std::to_string(step) + " app=" + app;
      for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
               {0.5, 10.0}, {1.0, 1.5}, {3.75, 3.9}}) {
        ExpectSameAdvice(ReferenceAdviseShardSize(reference, app, lo, hi),
                         kb.AdviseShardSize(app, lo, hi), what);
      }
      ExpectSameProfiles(ReferenceProfiles(reference, app), kb.Profiles(app),
                         what);
      for (int stage = 0; stage < 4; ++stage) {
        const auto a = ReferenceAdviseThreads(reference, app, stage);
        const auto b = kb.AdviseThreads(app, stage);
        ASSERT_EQ(a.ok(), b.ok()) << what;
        if (a.ok()) {
          EXPECT_EQ(a.value(), b.value()) << what;
        } else {
          EXPECT_EQ(a.status().ToString(), b.status().ToString()) << what;
        }
      }
    }
    const ReferenceQueryEngine legacy(reference);
    for (const std::string& body : queries) {
      const auto a = legacy.Execute(prefixes + body);
      const auto b = kb.Query(prefixes + body);
      ASSERT_TRUE(a.ok() && b.ok()) << body;
      ASSERT_EQ(SortedRows(a.value()), SortedRows(b.value()))
          << "step=" << step << "\n" << body;
    }
  }
  EXPECT_GE(compactions, 3u);
  EXPECT_TRUE(cold_start_checked);
}

TEST(FrozenDifferential, ConcurrentReadsAreRaceFree) {
  Twin pair;
  FillRandom(pair, 999, 800);
  const TripleStore& store = pair.store;
  const ReferenceStore& reference = pair.reference;
  const auto expected = reference.MatchAll({});

  std::vector<std::thread> readers;
  std::vector<char> ok(4, 0);
  for (std::size_t t = 0; t < ok.size(); ++t) {
    readers.emplace_back([&, t] {
      bool all_good = true;
      RandomStream rng(1000 + t, "differential/concurrent");
      for (int i = 0; i < 50; ++i) {
        const TermId s{1 + rng.UniformBelow(
            static_cast<std::uint32_t>(store.terms().size()))};
        const TermId p{1 + rng.UniformBelow(
            static_cast<std::uint32_t>(store.terms().size()))};
        const auto objects = store.Objects(s, p);
        all_good = all_good &&
                   std::is_sorted(objects.begin(), objects.end(),
                                  [](TermId a, TermId b) {
                                    return Index(a) < Index(b);
                                  });
        all_good = all_good && store.Subjects(p, s) == reference.Subjects(p, s);
      }
      all_good = all_good && store.MatchAll({}) == expected;
      ok[t] = all_good ? 1 : 0;
    });
  }
  for (auto& reader : readers) reader.join();
  for (std::size_t t = 0; t < ok.size(); ++t) {
    EXPECT_EQ(ok[t], 1) << "reader " << t;
  }
}

}  // namespace
}  // namespace scan::kb
