// Human-readable experiment reporting.
//
// Formats an ExperimentResult the way the Analyzer's "Report Failures" box
// in Fig. 1 would: headline counts, per-class breakdown, the ACK-to-fault
// interval distribution (§IV-A's key evidence) and the device-side
// mechanism counters that explain where each loss came from.
#pragma once

#include <string>

#include "platform/experiment.hpp"

namespace pofi::platform {

struct ReportOptions {
  /// Provenance stamp: the campaign spec's canonical content hash
  /// ("fnv1a:...") and the pofi build version. Omitted from the report when
  /// left empty.
  std::string spec_hash;
  std::string version;
};

[[nodiscard]] std::string format_report(const ExperimentResult& result,
                                        const ReportOptions& options = {});

}  // namespace pofi::platform
