#pragma once

// Profile ledger: aggregates a collected trace into per-(stage, tier,
// thread-count) performance rows — attempt counts, total modeled
// runtime, and fault/retry/straggle tallies — using the causal span ids
// to attribute every fault to the attempt (and thus the worker
// configuration) it hit.
//
// The ledger is the bridge from observability to the knowledge base:
// scan_kb's ledger ingest turns each row into scan:StageProfile triples
// (AddBatch), after which the KB answers SPARQL questions like
// "which tier runs stage 2 fastest per thread" from measured data.
//
// Determinism: rows are a pure function of the event stream. Runtimes
// are summed after sorting the per-row duration list by value, so sim
// and runtime streams that contain the same multiset of attempts produce
// bitwise-identical totals even when equal-time events interleave
// differently across lanes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scan/obs/trace.hpp"

namespace scan::obs {

/// Sentinel tier for events whose worker was never seen hiring (e.g. the
/// hire predates trace enablement).
inline constexpr std::uint64_t kLedgerTierUnknown = ~std::uint64_t{0};

[[nodiscard]] const char* LedgerTierName(std::uint64_t tier);

/// One aggregate row. `observations` counts exec attempts (speculative
/// copies included — they consume resources too).
struct ProfileRow {
  std::size_t stage = 0;
  std::uint64_t tier = kLedgerTierUnknown;  ///< cloud::Tier value
  int threads = 0;
  std::uint64_t observations = 0;
  double total_runtime_tu = 0.0;  ///< sum of modeled exec durations
  std::uint64_t crashes = 0;
  std::uint64_t flaps = 0;
  std::uint64_t retries = 0;
  std::uint64_t straggles = 0;
  [[nodiscard]] double mean_runtime_tu() const {
    return observations == 0
               ? 0.0
               : total_runtime_tu / static_cast<double>(observations);
  }
};

/// The aggregated profile, rows sorted by (stage, tier, threads).
class ProfileLedger {
 public:
  [[nodiscard]] static ProfileLedger FromEvents(
      const std::vector<TraceEvent>& events);

  [[nodiscard]] const std::vector<ProfileRow>& rows() const { return rows_; }
  [[nodiscard]] const ProfileRow* Find(std::size_t stage, std::uint64_t tier,
                                       int threads) const;

 private:
  std::vector<ProfileRow> rows_;
};

}  // namespace scan::obs
