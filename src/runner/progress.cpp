#include "runner/progress.hpp"

#include <cinttypes>

namespace pofi::runner {

void ConsoleProgress::on_event(const ProgressEvent& e) {
  switch (e.phase) {
    case CampaignPhase::kQueued:
      if (verbose_) {
        std::fprintf(out_, "[runner] queued   %zu/%zu %s\n", e.index + 1, e.total,
                     e.label.c_str());
      }
      break;
    case CampaignPhase::kStarted:
      std::fprintf(out_, "[runner] started  %s\n", e.label.c_str());
      break;
    case CampaignPhase::kFinished:
      if (e.status == CampaignStatus::kSkipped) {
        std::fprintf(out_, "[runner] skipped  %s (fail-fast/cancelled)\n", e.label.c_str());
      } else if (e.status == CampaignStatus::kSkippedCached) {
        std::fprintf(out_, "[runner] cached   %zu/%zu %s (restored from checkpoint)\n",
                     e.finished, e.total, e.label.c_str());
      } else if (e.status == CampaignStatus::kFailed ||
                 e.status == CampaignStatus::kQuarantined ||
                 e.status == CampaignStatus::kCancelled ||
                 e.status == CampaignStatus::kAuditFailed) {
        std::fprintf(out_, "[runner] %-8s %s: %s\n", to_string(e.status), e.label.c_str(),
                     e.error.c_str());
      } else {
        std::fprintf(out_,
                     "[runner] finished %zu/%zu %s%s: faults=%" PRIu32 " reqs=%" PRIu64
                     " dataFail=%" PRIu64 " fwa=%" PRIu64 " ioErr=%" PRIu64
                     " (%.2fs, suite loss %" PRIu64 ")\n",
                     e.finished, e.total, e.label.c_str(),
                     e.status == CampaignStatus::kTimedOut ? " [over budget]" : "",
                     e.faults_injected, e.requests_submitted, e.data_failures,
                     e.fwa_failures, e.io_errors, e.wall_seconds, e.suite_data_loss);
      }
      std::fflush(out_);
      break;
  }
}

std::string to_jsonl(const ProgressEvent& e) {
  std::string out;
  out.reserve(192);
  out += "{\"event\":\"";
  out += to_string(e.phase);
  out += "\",\"index\":" + std::to_string(e.index);
  out += ",\"label\":\"" + json_escape(e.label) + "\"";
  if (e.phase == CampaignPhase::kFinished) {
    out += ",\"status\":\"";
    out += to_string(e.status);
    out += "\"";
    if (!e.error.empty()) out += ",\"error\":\"" + json_escape(e.error) + "\"";
    if (is_success(e.status)) {
      char buf[64];
      out += ",\"faults\":" + std::to_string(e.faults_injected);
      out += ",\"requests\":" + std::to_string(e.requests_submitted);
      out += ",\"data_failures\":" + std::to_string(e.data_failures);
      out += ",\"fwa\":" + std::to_string(e.fwa_failures);
      out += ",\"io_errors\":" + std::to_string(e.io_errors);
      std::snprintf(buf, sizeof buf, "%g", e.wall_seconds);
      out += ",\"wall_seconds\":";
      out += buf;
    }
  }
  out += ",\"finished\":" + std::to_string(e.finished);
  out += ",\"total\":" + std::to_string(e.total);
  out += ",\"suite_data_loss\":" + std::to_string(e.suite_data_loss);
  out += "}";
  return out;
}

void JsonlProgress::on_event(const ProgressEvent& e) {
  // One write() of the whole line, then flush: a kill can truncate the final
  // line but never interleave or split records across buffer boundaries.
  const std::string line = to_jsonl(e) + "\n";
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.flush();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace pofi::runner
