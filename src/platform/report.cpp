#include "platform/report.hpp"

#include <cstdarg>
#include <cstdio>

#include "stats/summary.hpp"

namespace pofi::platform {

namespace {

// ACK-to-fault histogram of lost requests: 0-1000 ms in 100 ms bins.
constexpr double kHistogramMaxMs = 1000.0;
constexpr std::size_t kHistogramBins = 10;

void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string format_report(const ExperimentResult& r, const ReportOptions& options) {
  std::string out;
  appendf(out, "experiment            : %s\n", r.name.c_str());
  appendf(out, "requests submitted    : %llu (%llu write ACKs, %llu reads)\n",
          static_cast<unsigned long long>(r.requests_submitted),
          static_cast<unsigned long long>(r.write_acks),
          static_cast<unsigned long long>(r.reads_completed));
  appendf(out, "power faults injected : %u over %.1f s simulated\n", r.faults_injected,
          r.sim_seconds);
  if (r.requested_iops > 0.0) {
    appendf(out, "requested / responded : %.0f / %.0f IOPS\n", r.requested_iops,
            r.responded_iops);
  } else if (r.responded_iops > 0.0) {
    appendf(out, "responded IOPS        : %.0f\n", r.responded_iops);
  }
  if (r.mean_latency_us > 0.0) {
    appendf(out, "request latency (Q2C)  : mean %.0f us, max %.0f us\n", r.mean_latency_us,
            r.max_latency_us);
  }
  out += "\nfailures (SecIII-B taxonomy)\n";
  appendf(out, "  data failures       : %llu (checksum matches neither payload nor prior)\n",
          static_cast<unsigned long long>(r.data_failures));
  appendf(out, "  false write-acks    : %llu (ACKed, old data back at the address)\n",
          static_cast<unsigned long long>(r.fwa_failures));
  appendf(out, "  IO errors           : %llu (issued while device unavailable)\n",
          static_cast<unsigned long long>(r.io_errors));
  appendf(out, "  verified intact     : %llu\n",
          static_cast<unsigned long long>(r.verified_ok));
  appendf(out, "  data loss per fault : %.2f\n", r.data_failures_per_fault());

  stats::Histogram hist(0.0, kHistogramMaxMs, kHistogramBins);
  std::uint64_t losses = 0;
  for (const auto& f : r.failures) {
    if (f.type == FailureType::kIoError || f.ack_to_fault_ms < 0.0) continue;
    hist.add(f.ack_to_fault_ms);
    ++losses;
  }
  if (losses > 0) {
    out += "\nACK-to-fault interval of lost requests (SecIV-A)\n";
    const double bin_ms = kHistogramMaxMs / kHistogramBins;
    for (std::size_t b = 0; b < hist.bins().size(); ++b) {
      appendf(out, "  %4.0f-%4.0f ms  %-5llu ", b * bin_ms, (b + 1) * bin_ms,
              static_cast<unsigned long long>(hist.bins()[b]));
      const auto stars = static_cast<int>(40.0 * static_cast<double>(hist.bins()[b]) /
                                          static_cast<double>(losses));
      for (int s = 0; s < stars; ++s) out += '*';
      out += '\n';
    }
    appendf(out, "  p95 interval: %.0f ms\n", hist.quantile(0.95));
  }

  out += "\nmechanism counters\n";
  appendf(out, "  dirty cache pages lost    : %llu\n",
          static_cast<unsigned long long>(r.cache_dirty_lost));
  appendf(out, "  map updates reverted      : %llu\n",
          static_cast<unsigned long long>(r.map_updates_reverted));
  appendf(out, "  interrupted programs      : %llu\n",
          static_cast<unsigned long long>(r.interrupted_programs));
  appendf(out, "  paired-page upsets        : %llu\n",
          static_cast<unsigned long long>(r.paired_page_upsets));
  appendf(out, "  uncorrectable reads (ECC) : %llu\n",
          static_cast<unsigned long long>(r.uncorrectable_reads));

  if (!options.spec_hash.empty() || !options.version.empty()) {
    out += "\nprovenance\n";
    if (!options.spec_hash.empty()) {
      appendf(out, "  spec hash : %s\n", options.spec_hash.c_str());
    }
    if (!options.version.empty()) {
      appendf(out, "  build     : %s\n", options.version.c_str());
    }
  }
  return out;
}

}  // namespace pofi::platform
