#pragma once

// The live runtime's names for the engine core's streaming-ingest seam
// (see scan/core/ingest.hpp): RuntimeOptions::ingest takes a source, and
// front ends implement runtime::IngestSource.

#include "scan/core/ingest.hpp"

namespace scan::runtime {

using core::IngestSource;
using core::JobOutcome;

}  // namespace scan::runtime
