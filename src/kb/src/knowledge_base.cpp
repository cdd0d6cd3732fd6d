#include "scan/kb/knowledge_base.hpp"

#include <algorithm>
#include <limits>

#include "scan/common/str.hpp"

namespace scan::kb {

using namespace vocab;

KnowledgeBase::KnowledgeBase() {
  SeedScanOntology(store_);
  SeedDataFormats(store_);
}

std::string KnowledgeBase::QueryPrefixes() {
  return "PREFIX scan: <" + std::string(kScanNs) +
         ">\n"
         "PREFIX owl: <" +
         std::string(kOwlNs) +
         ">\n"
         "PREFIX rdfs: <" +
         std::string(kRdfsNs) + ">\n";
}

std::string KnowledgeBase::NextIndividualName(std::string_view application) {
  // Names follow the paper's expansion sequence GATK1, GATK2, ... Skip
  // names already present (e.g. when bootstrap profiles were added with
  // explicit names) so a task log never merges into an existing individual.
  for (;;) {
    ++auto_name_counter_;
    std::string name =
        std::string(application) + std::to_string(auto_name_counter_);
    if (!store_.terms().Lookup(MakeIri(Scan(name))).has_value()) {
      return name;
    }
  }
}

TermId KnowledgeBase::StageProfileTriples(const ApplicationProfile& profile,
                                          const std::string& name,
                                          std::vector<Triple>& out) {
  TermTable& terms = store_.terms();
  const TermId individual = terms.Intern(MakeIri(Scan(name)));
  const TermId rdf_type = terms.Intern(RdfType());
  auto add = [&](const Term& p, const Term& o) {
    out.push_back(Triple{individual, terms.Intern(p), terms.Intern(o)});
  };
  out.push_back(Triple{individual, rdf_type, terms.Intern(ClassApplication())});
  out.push_back(
      Triple{individual, rdf_type, terms.Intern(OwlNamedIndividual())});
  add(PropApplication(), MakeStringLiteral(profile.application));
  add(PropInputFileSize(), MakeDoubleLiteral(profile.input_file_size_gb));
  add(PropSteps(), MakeIntLiteral(profile.steps));
  add(PropETime(), MakeDoubleLiteral(profile.etime));
  add(PropThreads(), MakeIntLiteral(profile.threads));
  if (profile.cpu > 0) {
    add(PropCpu(), MakeIntLiteral(profile.cpu));
  }
  if (profile.ram_gb > 0.0) {
    add(PropRam(), MakeDoubleLiteral(profile.ram_gb));
  }
  if (profile.stage > 0) {
    add(PropStage(), MakeIntLiteral(profile.stage));
  }
  if (!profile.performance.empty()) {
    add(PropPerformance(), MakeStringLiteral(profile.performance));
  }
  return individual;
}

TermId KnowledgeBase::InsertIndividual(const ApplicationProfile& profile,
                                       const std::string& name) {
  std::vector<Triple> staged;
  staged.reserve(10);
  const TermId individual = StageProfileTriples(profile, name, staged);
  for (const Triple& t : staged) store_.Add(t);
  return individual;
}

TermId KnowledgeBase::AddProfile(const ApplicationProfile& profile) {
  const std::string name = profile.individual.empty()
                               ? NextIndividualName(profile.application)
                               : profile.individual;
  return InsertIndividual(profile, name);
}

TermId KnowledgeBase::RecordTaskLog(const ApplicationProfile& log_entry) {
  // Task logs always get fresh auto names: each run extends the KB, as in
  // the paper's GATK1 -> GATK2 -> GATK3 -> GATK4 expansion example.
  return InsertIndividual(log_entry, NextIndividualName(log_entry.application));
}

std::vector<TermId> KnowledgeBase::AddProfilesBulk(
    std::span<const ApplicationProfile> profiles) {
  std::vector<TermId> ids;
  ids.reserve(profiles.size());
  std::vector<Triple> staged;
  staged.reserve(profiles.size() * 10);
  for (const ApplicationProfile& profile : profiles) {
    const std::string name = profile.individual.empty()
                                 ? NextIndividualName(profile.application)
                                 : profile.individual;
    ids.push_back(StageProfileTriples(profile, name, staged));
  }
  store_.AddBatch(staged);
  return ids;
}

const FrozenIndex& KnowledgeBase::Freeze() {
  store_.Compact();
  return store_.base();
}

std::size_t KnowledgeBase::ProfileCount(std::string_view application) const {
  return Profiles(application).size();
}

namespace {

/// Local name of an individual's IRI (the part after '#').
std::string LocalName(std::string_view iri) {
  const std::size_t hash_pos = iri.rfind('#');
  return std::string(hash_pos == std::string_view::npos
                         ? iri
                         : iri.substr(hash_pos + 1));
}

}  // namespace

std::vector<ApplicationProfile> KnowledgeBase::Profiles(
    std::string_view application, std::optional<int> stage) const {
  std::vector<ApplicationProfile> out;
  const TermTable& terms = store_.terms();
  const auto app_prop = terms.Lookup(PropApplication());
  const auto app_value =
      terms.Lookup(MakeStringLiteral(std::string(application)));
  if (!app_prop || !app_value) return out;

  // Property ids resolve once; subjects and objects come back in ascending
  // id order, which is insertion order for auto-named individuals.
  auto object_of = [&](TermId subject, const std::optional<TermId>& prop) {
    return prop ? store_.FirstObject(subject, *prop) : std::nullopt;
  };
  auto numeric_of = [&](TermId subject, const std::optional<TermId>& prop) {
    const auto obj = object_of(subject, prop);
    return obj ? terms.Numeric(*obj).value_or(0.0) : 0.0;
  };
  const auto stage_prop = terms.Lookup(PropStage());
  const auto size_prop = terms.Lookup(PropInputFileSize());
  const auto steps_prop = terms.Lookup(PropSteps());
  const auto cpu_prop = terms.Lookup(PropCpu());
  const auto ram_prop = terms.Lookup(PropRam());
  const auto etime_prop = terms.Lookup(PropETime());
  const auto threads_prop = terms.Lookup(PropThreads());
  const auto performance_prop = terms.Lookup(PropPerformance());

  for (const TermId subject : store_.Subjects(*app_prop, *app_value)) {
    ApplicationProfile profile;
    profile.individual = LocalName(terms.Get(subject).lexical);
    profile.application = std::string(application);
    profile.stage = static_cast<int>(numeric_of(subject, stage_prop));
    profile.input_file_size_gb = numeric_of(subject, size_prop);
    profile.steps = static_cast<int>(numeric_of(subject, steps_prop));
    profile.cpu = static_cast<int>(numeric_of(subject, cpu_prop));
    profile.ram_gb = numeric_of(subject, ram_prop);
    profile.etime = numeric_of(subject, etime_prop);
    const int threads = static_cast<int>(numeric_of(subject, threads_prop));
    profile.threads = threads > 0 ? threads : 1;
    if (const auto performance = object_of(subject, performance_prop)) {
      profile.performance = terms.Get(*performance).lexical;
    }
    if (stage && profile.stage != *stage) continue;
    out.push_back(std::move(profile));
  }
  return out;
}

Result<ShardAdvice> KnowledgeBase::AdviseShardSize(
    std::string_view application, double min_gb, double max_gb) const {
  if (min_gb < 0.0 || max_gb < min_gb) {
    return InvalidArgumentError("AdviseShardSize: bad size bounds");
  }
  // The paper's broker asks, in SPARQL:
  //   SELECT ?ind ?size ?etime ?cpu ?ram WHERE {
  //     ?ind a scan:Application . ?ind scan:application "<app>" .
  //     ?ind scan:inputFileSize ?size . ?ind scan:eTime ?etime .
  //     OPTIONAL { ?ind scan:CPU ?cpu } OPTIONAL { ?ind scan:RAM ?ram }
  //     FILTER(?size >= min && ?size <= max && ?etime > 0)
  //   } ORDER BY ASC(?etime)
  // and keeps the first row with the strictly lowest eTime / size. That
  // winner is the lexicographic minimum by (score, etime, subject id,
  // size), which one streaming pass finds without a result set:
  // candidates come off the (application, name) postings in ascending
  // subject order and each attribute read is a span lookup. The testkit
  // oracle (scan/testkit/kb_reference.hpp) still runs the query text.
  const TermTable& terms = store_.terms();
  const auto app_prop = terms.Lookup(PropApplication());
  const auto app_value =
      terms.Lookup(MakeStringLiteral(std::string(application)));
  const auto rdf_type = terms.Lookup(RdfType());
  const auto app_class = terms.Lookup(ClassApplication());
  const auto size_prop = terms.Lookup(PropInputFileSize());
  const auto etime_prop = terms.Lookup(PropETime());
  const auto cpu_prop = terms.Lookup(PropCpu());
  const auto ram_prop = terms.Lookup(PropRam());

  bool found = false;
  double best_score = 0.0;
  double best_etime = 0.0;
  double best_size = 0.0;
  TermId best_ind = kInvalidTermId;

  if (app_prop && app_value && rdf_type && app_class && size_prop &&
      etime_prop) {
    store_.SubjectsVisit(*app_prop, *app_value, [&](TermId ind) {
      store_.ObjectsVisit(ind, *size_prop, [&](TermId size_id) {
        const auto size = terms.Numeric(size_id);
        if (!size || *size < min_gb || *size > max_gb || *size <= 0.0) {
          return true;
        }
        store_.ObjectsVisit(ind, *etime_prop, [&](TermId etime_id) {
          const auto etime = terms.Numeric(etime_id);
          if (!etime || *etime <= 0.0) return true;
          const double score = *etime / *size;
          const bool better =
              !found || score < best_score ||
              (score == best_score &&
               (*etime < best_etime ||
                (*etime == best_etime &&
                 (Index(ind) < Index(best_ind) ||
                  (ind == best_ind && *size < best_size)))));
          // The type pattern joins last: only a would-be winner pays for
          // the membership probe.
          if (better &&
              store_.Contains(Triple{ind, *rdf_type, *app_class})) {
            found = true;
            best_score = score;
            best_etime = *etime;
            best_size = *size;
            best_ind = ind;
          }
          return true;
        });
        return true;
      });
      return true;
    });
  }

  if (!found) {
    return NotFoundError("AdviseShardSize: no profile for application '" +
                         std::string(application) + "' within bounds");
  }
  ShardAdvice best;
  best.shard_size_gb = best_size;
  best.time_per_gb = best_score;
  best.source_individual = LocalName(terms.Get(best_ind).lexical);
  auto numeric_attr = [&](const std::optional<TermId>& prop) -> double {
    if (!prop) return 0.0;
    const auto obj = store_.FirstObject(best_ind, *prop);
    if (!obj) return 0.0;
    return terms.Numeric(*obj).value_or(0.0);
  };
  best.recommended_cpu = static_cast<int>(numeric_attr(cpu_prop));
  best.recommended_ram_gb = numeric_attr(ram_prop);
  return best;
}

Result<int> KnowledgeBase::AdviseThreads(std::string_view application,
                                         int stage) const {
  const auto profiles = Profiles(application, stage);
  if (profiles.empty()) {
    return NotFoundError(StrFormat(
        "AdviseThreads: no profiles for stage %d of '%s'", stage,
        std::string(application).c_str()));
  }
  // Normalize by input size so differently-sized profile runs compare
  // fairly, then pick the thread count with the best normalized time.
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

LinearFit KnowledgeBase::FitETimeModel(std::string_view application,
                                       std::optional<int> stage,
                                       int threads) const {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const auto& p : Profiles(application, stage)) {
    if (p.threads != threads) continue;
    xs.push_back(p.input_file_size_gb);
    ys.push_back(p.etime);
  }
  return FitLine(xs, ys);
}

Result<ResultSet> KnowledgeBase::Query(std::string_view sparql) const {
  const QueryEngine engine(store_);
  return engine.Execute(sparql);
}

}  // namespace scan::kb
