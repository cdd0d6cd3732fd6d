// Units for the frozen KB index stack: varbyte posting arrays, FrozenIndex
// accessors, the BGP planner, and the query engine (against the testkit
// reference engine on small fixtures; the randomized differential suite
// lives in frozen_differential_test.cpp).

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "scan/common/rng.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/plan.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"
#include "scan/kb/vbyte.hpp"
#include "scan/testkit/kb_reference.hpp"

namespace scan::kb {
namespace {

using testkit::ReferenceQueryEngine;
using testkit::ReferenceStore;

TEST(Vbyte, RoundTripsRepresentativeValues) {
  const std::vector<std::uint32_t> values = {
      0, 1, 127, 128, 129, 16383, 16384, 1u << 21, 0x0fffffffu, 0xffffffffu};
  std::vector<std::uint8_t> bytes;
  for (const std::uint32_t v : values) VbyteEncode(v, bytes);
  std::size_t pos = 0;
  for (const std::uint32_t v : values) {
    EXPECT_EQ(VbyteDecode(bytes.data(), pos), v);
  }
  EXPECT_EQ(pos, bytes.size());
}

std::vector<std::uint32_t> AscendingSequence(std::size_t n,
                                             std::uint64_t seed) {
  RandomStream rng(seed, "vbyte-test");
  std::vector<std::uint32_t> out;
  out.reserve(n);
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    value += 1 + rng.UniformBelow(300);  // strictly ascending, varied gaps
    out.push_back(value);
  }
  return out;
}

TEST(CompressedPostings, AccessorsMatchSourceAcrossSizes) {
  // One pool holds every size; views stay valid once adding is done.
  PostingPool pool;
  std::vector<std::vector<std::uint32_t>> sources;
  std::vector<std::uint32_t> lists;
  for (const std::size_t n : {0ul, 1ul, 31ul, 32ul, 33ul, 100ul, 1000ul}) {
    sources.push_back(AscendingSequence(n, 7 + n));
    lists.push_back(pool.Add(sources.back().data(), n));
  }
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const auto& values = sources[k];
    const auto postings = pool.Get(lists[k]);
    ASSERT_EQ(postings.size(), values.size());
    EXPECT_EQ(postings.empty(), values.empty());

    std::vector<std::uint32_t> streamed;
    postings.ForEach([&](std::uint32_t v) {
      streamed.push_back(v);
      return true;
    });
    EXPECT_EQ(streamed, values);

    std::vector<std::uint32_t> appended{42};
    postings.AppendTo(appended);
    ASSERT_EQ(appended.size(), values.size() + 1);
    EXPECT_TRUE(std::equal(values.begin(), values.end(), appended.begin() + 1));
  }
}

TEST(CompressedPostings, EarlyStopAndCompression) {
  const auto values = AscendingSequence(500, 99);
  PostingPool pool;
  const auto postings = pool.Get(pool.Add(values.data(), values.size()));
  std::size_t visited = 0;
  postings.ForEach([&](std::uint32_t) { return ++visited < 10; });
  EXPECT_EQ(visited, 10u);
  // Gaps under 300 fit two varbyte bytes: well under 4 bytes/value raw.
  EXPECT_LT(postings.byte_size(), values.size() * 4);
  EXPECT_EQ(pool.byte_size(), postings.byte_size());
}

/// Small mixed-shape graph used across the FrozenIndex tests, compacted so
/// its base holds every triple.
TripleStore MakeFixtureStore() {
  TripleStore store;
  const Term type = MakeIri(std::string(kRdfType));
  store.Add(MakeIri("s/alice"), type, MakeIri("c/Person"));
  store.Add(MakeIri("s/alice"), MakeIri("p/age"), MakeIntLiteral(30));
  store.Add(MakeIri("s/alice"), MakeIri("p/knows"), MakeIri("s/bob"));
  store.Add(MakeIri("s/alice"), MakeIri("p/knows"), MakeIri("s/carol"));
  store.Add(MakeIri("s/bob"), type, MakeIri("c/Person"));
  store.Add(MakeIri("s/bob"), MakeIri("p/age"), MakeIntLiteral(25));
  store.Add(MakeIri("s/carol"), type, MakeIri("c/Robot"));
  store.Add(MakeIri("s/carol"), MakeIri("p/age"), MakeIntLiteral(5));
  store.Add(MakeIri("s/carol"), MakeIri("p/knows"), MakeIri("s/alice"));
  store.Compact();
  return store;
}

TermId Id(const TermTable& terms, const Term& term) {
  const auto id = terms.Lookup(term);
  EXPECT_TRUE(id.has_value()) << ToString(term);
  return id.value_or(kInvalidTermId);
}

TEST(FrozenIndex, HotPathAccessorsMatchStore) {
  const TripleStore lsm = MakeFixtureStore();
  const FrozenIndex& frozen = lsm.base();
  const ReferenceStore store = ReferenceStore::Mirror(lsm);
  EXPECT_EQ(frozen.size(), store.size());

  const TermId alice = Id(store.terms(), MakeIri("s/alice"));
  const TermId knows = Id(store.terms(), MakeIri("p/knows"));
  const TermId age = Id(store.terms(), MakeIri("p/age"));
  const TermId person = Id(store.terms(), MakeIri("c/Person"));
  const TermId type = Id(store.terms(), MakeIri(std::string(kRdfType)));

  const auto knows_span = frozen.Objects(alice, knows);
  const std::vector<TermId> knows_vec(knows_span.begin(), knows_span.end());
  EXPECT_EQ(knows_vec, store.Objects(alice, knows));
  EXPECT_EQ(frozen.FirstObject(alice, knows), store.FirstObject(alice, knows));
  EXPECT_EQ(frozen.FirstObject(alice, person), std::nullopt);

  const auto instances = frozen.InstancesOf(person);
  EXPECT_EQ(std::vector<TermId>(instances.begin(), instances.end()),
            store.InstancesOf(person));
  EXPECT_EQ(lsm.InstancesOf(person), store.InstancesOf(person));
  EXPECT_TRUE(frozen.InstancesOf(knows).empty());

  EXPECT_TRUE(frozen.Contains(Triple{alice, type, person}));
  EXPECT_FALSE(frozen.Contains(Triple{alice, type, knows}));

  EXPECT_EQ(frozen.Subjects(type, person), store.Subjects(type, person));
  EXPECT_EQ(frozen.SubjectCount(type, person), 2u);
  EXPECT_EQ(frozen.SubjectCount(age, person), 0u);

  // Ids outside the frozen id range are simply absent.
  const TermId bogus{0x7fffffff};
  EXPECT_TRUE(frozen.Objects(bogus, knows).empty());
  EXPECT_TRUE(frozen.InstancesOf(bogus).empty());
  EXPECT_FALSE(frozen.Contains(Triple{bogus, bogus, bogus}));
}

TEST(FrozenIndex, MatchEmitsLegacyOrderForEveryShape) {
  const TripleStore lsm = MakeFixtureStore();
  const FrozenIndex& frozen = lsm.base();
  const ReferenceStore store = ReferenceStore::Mirror(lsm);

  const TermId alice = Id(store.terms(), MakeIri("s/alice"));
  const TermId knows = Id(store.terms(), MakeIri("p/knows"));
  const TermId bob = Id(store.terms(), MakeIri("s/bob"));
  const std::optional<TermId> none;

  const std::vector<TriplePatternIds> shapes = {
      {none, none, none},   {alice, none, none}, {none, knows, none},
      {none, none, bob},    {alice, knows, none}, {alice, none, bob},
      {none, knows, bob},   {alice, knows, bob},
  };
  for (const auto& pattern : shapes) {
    EXPECT_EQ(frozen.MatchAll(pattern), store.MatchAll(pattern));
  }
}

TEST(FrozenIndex, AppendMatchesBuild) {
  // Subjects 1..40 with a few predicates; the split leaves subject 20's
  // triples on both sides, so Append reopens the last row.
  RandomStream rng(31, "append-test");
  TermTable terms;
  const TermId type = terms.Intern(MakeIri(std::string(kRdfType)));
  std::vector<Triple> all;
  for (int s = 1; s <= 40; ++s) {
    const TermId subject = terms.Intern(MakeIri("s/" + std::to_string(s)));
    all.push_back(Triple{subject, type,
                         terms.Intern(MakeIri("c/" + std::to_string(s % 3)))});
    for (int k = 0; k < 4; ++k) {
      all.push_back(Triple{
          subject, terms.Intern(MakeIri("p/" + std::to_string(k))),
          terms.Intern(MakeIntLiteral(rng.UniformBelow(12)))});
    }
  }
  auto spo_less = [](const Triple& a, const Triple& b) {
    return std::tuple(Index(a.s), Index(a.p), Index(a.o)) <
           std::tuple(Index(b.s), Index(b.p), Index(b.o));
  };
  std::sort(all.begin(), all.end(), spo_less);
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto id_limit = static_cast<std::uint32_t>(terms.size()) + 1;

  // Split inside subject 20's run, then shuffle its predicates across the
  // split so the reopened row must merge, not just concatenate.
  const TermId s20 = *terms.Lookup(MakeIri("s/20"));
  const auto first20 = std::find_if(
      all.begin(), all.end(), [&](const Triple& t) { return t.s == s20; });
  std::vector<Triple> head(all.begin(), first20 + 2);
  std::vector<Triple> tail(first20 + 2, all.end());
  std::swap(head.back(), tail.front());
  std::sort(head.begin(), head.end(), spo_less);
  std::sort(tail.begin(), tail.end(), spo_less);

  FrozenIndex appended = FrozenIndex::Build(head, id_limit, type);
  ASSERT_TRUE(appended.AppendsAt(s20));
  appended.Append(tail, id_limit, type);
  const FrozenIndex built = FrozenIndex::Build(all, id_limit, type);

  EXPECT_EQ(appended.MatchAll({}), built.MatchAll({}));
  for (const Triple& t : all) {
    ASSERT_EQ(appended.MatchAll({t.s, std::nullopt, std::nullopt}),
              built.MatchAll({t.s, std::nullopt, std::nullopt}));
    ASSERT_EQ(appended.MatchAll({std::nullopt, t.p, std::nullopt}),
              built.MatchAll({std::nullopt, t.p, std::nullopt}));
    ASSERT_EQ(appended.MatchAll({std::nullopt, std::nullopt, t.o}),
              built.MatchAll({std::nullopt, std::nullopt, t.o}));
    const auto a = appended.InstancesOf(t.o);
    const auto b = built.InstancesOf(t.o);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  EXPECT_EQ(appended.stats().triples, built.stats().triples);
  EXPECT_EQ(appended.stats().subjects, built.stats().subjects);
  EXPECT_EQ(appended.stats().predicates, built.stats().predicates);
  EXPECT_EQ(appended.stats().objects, built.stats().objects);
  EXPECT_EQ(appended.stats().compressed_postings_bytes,
            built.stats().compressed_postings_bytes);
  for (const TermId p : {type, *terms.Lookup(MakeIri("p/0"))}) {
    const std::vector<TermId> preds{p};
    EXPECT_EQ(appended.CountSubjectsWithPredicates(preds),
              built.CountSubjectsWithPredicates(preds));
  }
}

TEST(FrozenIndex, StatsAndCharacteristicSets) {
  const TripleStore store = MakeFixtureStore();
  const FrozenIndex& frozen = store.base();

  const auto& stats = frozen.stats();
  EXPECT_EQ(stats.triples, store.size());
  EXPECT_EQ(stats.subjects, 3u);
  EXPECT_EQ(stats.predicates, 3u);  // rdf:type, age, knows
  EXPECT_GT(stats.raw_posting_values, 0u);
  EXPECT_GT(stats.compressed_postings_bytes, 0u);

  // alice and carol share {type, age, knows}; bob has {type, age}.
  EXPECT_EQ(stats.characteristic_sets, 2u);
  std::uint64_t total = 0;
  for (const auto& cs : frozen.characteristic_sets()) {
    total += cs.subject_count;
  }
  EXPECT_EQ(total, 3u);

  const TermId age = Id(store.terms(), MakeIri("p/age"));
  const TermId knows = Id(store.terms(), MakeIri("p/knows"));
  EXPECT_EQ(frozen.CountSubjectsWithPredicates(
                std::vector<TermId>{age, knows}),
            2u);
  EXPECT_EQ(frozen.CountSubjectsWithPredicates(std::vector<TermId>{age}), 3u);

  const TermId alice = Id(store.terms(), MakeIri("s/alice"));
  EXPECT_EQ(frozen.CountEstimate({alice, std::nullopt, std::nullopt}), 4u);
  EXPECT_EQ(frozen.CountEstimate({std::nullopt, knows, std::nullopt}), 3u);
  EXPECT_EQ(frozen.CountEstimate({std::nullopt, std::nullopt, std::nullopt}),
            store.size());
}

TEST(PlanBgp, OrdersBySelectivityAndPicksMergeStrategies) {
  KnowledgeBase kb;
  for (int i = 0; i < 40; ++i) {
    ApplicationProfile p;
    p.application = i % 4 == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 + i;
    p.etime = 10.0 + i;
    kb.AddProfile(p);
  }
  (void)kb.Freeze();

  const auto query = ParseSparql(
      KnowledgeBase::QueryPrefixes() +
      "SELECT ?ind ?size WHERE {\n"
      "  ?ind a scan:Application .\n"
      "  ?ind scan:application \"GATK\" .\n"
      "  ?ind scan:inputFileSize ?size .\n"
      "}");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  const BgpPlan plan =
      PlanBgp(query.value().where.triples,
              std::vector<bool>(query.value().var_names.size(), false),
              kb.store());
  ASSERT_EQ(plan.steps.size(), 3u);

  // The app="GATK" pattern is the most selective (10 subjects vs 40), so it
  // leads as a one-time scan; the type pattern then merge-filters the bound
  // subjects; the size expansion runs last as per-row probes.
  EXPECT_EQ(plan.steps[0].strategy, JoinStrategy::kCross);
  EXPECT_EQ(plan.steps[0].estimate, 10u);
  EXPECT_EQ(plan.steps[1].strategy, JoinStrategy::kMergeFilter);
  EXPECT_EQ(plan.steps[2].strategy, JoinStrategy::kProbe);
}

/// Renders a result set as sorted row strings (order-insensitive compare).
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

TEST(QueryEngine, MatchesReferenceEngineOnFixtureQueries) {
  KnowledgeBase kb;
  for (int i = 0; i < 12; ++i) {
    ApplicationProfile p;
    p.application = i % 3 == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 + i % 5;
    p.etime = 5.0 * (1 + i % 4);
    p.threads = 1 + i % 2;
    p.cpu = i % 2 == 0 ? 8 : 0;
    p.stage = i % 3;
    kb.AddProfile(p);
    if (i == 5) (void)kb.Freeze();
  }
  // Half the profiles land in the base, half stay in the delta.
  const ReferenceStore reference = ReferenceStore::Mirror(kb.store());
  const ReferenceQueryEngine legacy(reference);
  const QueryEngine planned(kb.store());

  const std::string prefixes = KnowledgeBase::QueryPrefixes();
  const std::vector<std::string> queries = {
      // Star join + filter.
      "SELECT ?ind ?size WHERE { ?ind a scan:Application . "
      "?ind scan:inputFileSize ?size . FILTER(?size > 2) }",
      // OPTIONAL with partially-missing attribute.
      "SELECT ?ind ?cpu WHERE { ?ind scan:application \"GATK\" . "
      "OPTIONAL { ?ind scan:CPU ?cpu . } }",
      // UNION.
      "SELECT ?ind WHERE { { ?ind scan:application \"GATK\" . } UNION "
      "{ ?ind scan:application \"BWA\" . } }",
      // ORDER BY: fully ordered, exact row-sequence equality applies.
      "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . } "
      "ORDER BY DESC(?etime) ASC(?ind)",
      // DISTINCT projection.
      "SELECT DISTINCT ?size WHERE { ?ind scan:inputFileSize ?size . }",
      // Aggregates with GROUP BY.
      "SELECT ?app (COUNT(*) AS ?n) (AVG(?etime) AS ?mean) WHERE { "
      "?ind scan:application ?app . ?ind scan:eTime ?etime . } GROUP BY ?app",
      // Unsatisfiable constant.
      "SELECT ?x WHERE { ?x scan:application \"NOPE\" . }",
      // Repeated variable in one pattern.
      "SELECT ?x WHERE { ?x scan:knows ?x . }",
  };
  for (const std::string& body : queries) {
    const std::string text = prefixes + body;
    const auto a = legacy.Execute(text);
    const auto b = planned.Execute(text);
    ASSERT_TRUE(a.ok()) << a.status().ToString() << "\n" << body;
    ASSERT_TRUE(b.ok()) << b.status().ToString() << "\n" << body;
    EXPECT_EQ(a.value().variables, b.value().variables) << body;
    EXPECT_EQ(SortedRows(a.value()), SortedRows(b.value())) << body;
  }

  // The ORDER BY query is fully ordered: row sequences must agree exactly.
  const std::string ordered =
      prefixes +
      "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . } "
      "ORDER BY ASC(?etime) ASC(?ind)";
  const auto a = legacy.Execute(ordered);
  const auto b = planned.Execute(ordered);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().ToString(), b.value().ToString());
}

TEST(TripleStore, AddBatchMatchesIncrementalAdds) {
  RandomStream rng(1234, "addbatch-test");
  TripleStore incremental;
  TripleStore batched;
  std::vector<Triple> staged;
  for (int i = 0; i < 400; ++i) {
    const Term s = MakeIri("s/" + std::to_string(rng.UniformBelow(40)));
    const Term p = MakeIri("p/" + std::to_string(rng.UniformBelow(6)));
    const Term o = MakeIntLiteral(rng.UniformBelow(25));
    incremental.Add(s, p, o);
    staged.push_back(Triple{batched.terms().Intern(s),
                            batched.terms().Intern(p),
                            batched.terms().Intern(o)});
  }
  // Duplicate a slice of the batch: AddBatch must collapse them.
  staged.insert(staged.end(), staged.begin(), staged.begin() + 50);
  const std::size_t added = batched.AddBatch(staged);
  EXPECT_EQ(added, incremental.size());
  EXPECT_EQ(batched.size(), incremental.size());
  // The batch builds the base directly; the adds stay in the delta.
  EXPECT_EQ(batched.delta_size(), 0u);
  EXPECT_EQ(batched.base().size(), batched.size());
  EXPECT_EQ(incremental.delta_size(), incremental.size());
  EXPECT_EQ(batched.MatchAll({std::nullopt, std::nullopt, std::nullopt}),
            incremental.MatchAll({std::nullopt, std::nullopt, std::nullopt}));
  // A second identical batch adds nothing.
  EXPECT_EQ(batched.AddBatch(staged), 0u);
  EXPECT_EQ(batched.size(), incremental.size());
}

TEST(KnowledgeBase, FreezeLifecycleAndBulkLoad) {
  KnowledgeBase incremental;
  KnowledgeBase bulk;
  std::vector<ApplicationProfile> profiles;
  for (int i = 0; i < 30; ++i) {
    ApplicationProfile p;
    p.application = i % 2 == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 + i % 7;
    p.etime = 3.0 + i % 5;
    p.cpu = 4;
    p.ram_gb = 8.0;
    profiles.push_back(p);
  }
  for (const auto& p : profiles) incremental.AddProfile(p);
  const auto ids = bulk.AddProfilesBulk(profiles);
  EXPECT_EQ(ids.size(), profiles.size());
  EXPECT_EQ(bulk.store().size(), incremental.store().size());
  EXPECT_EQ(bulk.ProfileCount("GATK"), incremental.ProfileCount("GATK"));

  // The bulk load compacts; single adds stay in the delta until Freeze().
  EXPECT_TRUE(bulk.FrozenFresh());
  EXPECT_FALSE(incremental.FrozenFresh());
  EXPECT_EQ(incremental.Freeze().size(), incremental.store().size());
  EXPECT_TRUE(incremental.FrozenFresh());

  const auto a = incremental.AdviseShardSize("GATK", 0.5, 100.0);
  const auto b = bulk.AdviseShardSize("GATK", 0.5, 100.0);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value().shard_size_gb, a.value().shard_size_gb);
  EXPECT_EQ(b.value().time_per_gb, a.value().time_per_gb);
  EXPECT_EQ(b.value().source_individual, a.value().source_individual);
  EXPECT_EQ(b.value().recommended_cpu, a.value().recommended_cpu);
  EXPECT_EQ(b.value().recommended_ram_gb, a.value().recommended_ram_gb);

  // Profiles are byte-identical through either load path.
  const auto pa = incremental.Profiles("BWA");
  const auto pb = bulk.Profiles("BWA");
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].individual, pb[i].individual);
    EXPECT_EQ(pa[i].etime, pb[i].etime);
  }

  // A task log lands in the delta; advice sees it at once.
  ApplicationProfile extra;
  extra.application = "GATK";
  extra.input_file_size_gb = 2.0;
  extra.etime = 0.1;
  bulk.RecordTaskLog(extra);
  EXPECT_FALSE(bulk.FrozenFresh());
  const auto fresh_advice = bulk.AdviseShardSize("GATK", 0.5, 100.0);
  ASSERT_TRUE(fresh_advice.ok());
  EXPECT_NEAR(fresh_advice.value().time_per_gb, 0.05, 1e-12);
}

TEST(KnowledgeBase, FrozenQueryRoutingPreservesResults) {
  KnowledgeBase kb;
  for (int i = 0; i < 10; ++i) {
    ApplicationProfile p;
    p.application = "GATK";
    p.input_file_size_gb = 1.0 + i;
    p.etime = 2.0 * (i + 1);
    kb.AddProfile(p);
  }
  const std::string query = KnowledgeBase::QueryPrefixes() +
                            "SELECT ?ind ?etime WHERE { ?ind scan:eTime "
                            "?etime . } ORDER BY ASC(?etime)";
  const auto before = kb.Query(query);
  kb.Freeze();
  const auto after = kb.Query(query);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.value().ToString(), after.value().ToString());
}

}  // namespace
}  // namespace scan::kb
