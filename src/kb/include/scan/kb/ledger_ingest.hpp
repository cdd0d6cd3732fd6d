#pragma once

// Bridge from the observability profile ledger into the knowledge base:
// every ProfileRow becomes one scan:StageProfile named individual whose
// properties (stage, tier, threads, observations, totalRuntimeTU,
// crashes, flaps, retries, straggles) are staged as a single
// TripleStore::AddBatch, which compacts them into the store's frozen
// base. The rows then answer SPARQL questions — "which tier ran stage 2 fastest per observation?" — from
// measured data, closing the paper's profile-expansion loop (§III-A-2)
// with runtime telemetry instead of hand-entered logs.

#include <cstddef>
#include <string_view>

#include "scan/kb/triple_store.hpp"
#include "scan/obs/ledger.hpp"

namespace scan::kb {

/// Stages one scan:StageProfile individual per ledger row into `store`
/// with a single AddBatch. Individuals are named
/// "<prefix><stage>_<tier>_t<threads>" (deterministic, so re-ingesting
/// the same ledger is idempotent at the triple level). Returns the
/// number of triples actually added.
std::size_t IngestLedger(TripleStore& store, const obs::ProfileLedger& ledger,
                         std::string_view prefix = "profile_s");

}  // namespace scan::kb
