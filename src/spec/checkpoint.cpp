#include "spec/checkpoint.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "spec/codec.hpp"
#include "spec/obs_json.hpp"

namespace pofi::spec {

namespace {

constexpr double kDoubleLo = -1e300;
constexpr double kDoubleHi = 1e300;

Value to_json(const platform::FailureRecord& f) {
  Value v = Value::object();
  v.set("packet_id", f.packet_id);
  v.set("type", platform::to_string(f.type));
  v.set("fault_index", std::uint64_t{f.fault_index});
  v.set("ack_to_fault_ms", f.ack_to_fault_ms);
  v.set("pages_garbage", std::uint64_t{f.pages_garbage});
  v.set("pages_reverted", std::uint64_t{f.pages_reverted});
  v.set("op", workload::to_string(f.op));
  return v;
}

platform::FailureRecord failure_from_json(const Value& v) {
  platform::FailureRecord f;
  for_each_member(v, "failure record", [&](const std::string& key, const Value& m) {
    if (key == "packet_id") {
      f.packet_id = read_u64(m, key);
    } else if (key == "type") {
      const std::string s = read_string(m, key);
      if (s == "data-failure") f.type = platform::FailureType::kDataFailure;
      else if (s == "FWA") f.type = platform::FailureType::kFwa;
      else if (s == "io-error") f.type = platform::FailureType::kIoError;
      else throw Error("unknown failure type \"" + s + "\"", m.line, m.col, key);
    } else if (key == "fault_index") {
      f.fault_index = read_u32(m, key);
    } else if (key == "ack_to_fault_ms") {
      f.ack_to_fault_ms = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "pages_garbage") {
      f.pages_garbage = read_u32(m, key);
    } else if (key == "pages_reverted") {
      f.pages_reverted = read_u32(m, key);
    } else if (key == "op") {
      const std::string s = read_string(m, key);
      if (s == "read") f.op = workload::OpType::kRead;
      else if (s == "write") f.op = workload::OpType::kWrite;
      else throw Error("unknown op \"" + s + "\"", m.line, m.col, key);
    } else {
      return false;
    }
    return true;
  });
  return f;
}

}  // namespace

Value to_json(const platform::ExperimentResult& r) {
  Value v = Value::object();
  v.set("name", r.name);
  v.set("requests_submitted", r.requests_submitted);
  v.set("write_acks", r.write_acks);
  v.set("reads_completed", r.reads_completed);
  v.set("faults_injected", std::uint64_t{r.faults_injected});
  v.set("data_failures", r.data_failures);
  v.set("fwa_failures", r.fwa_failures);
  v.set("io_errors", r.io_errors);
  v.set("verified_ok", r.verified_ok);
  v.set("read_mismatches", r.read_mismatches);
  v.set("requested_iops", r.requested_iops);
  v.set("responded_iops", r.responded_iops);
  v.set("mean_latency_us", r.mean_latency_us);
  v.set("max_latency_us", r.max_latency_us);
  v.set("active_seconds", r.active_seconds);
  v.set("sim_seconds", r.sim_seconds);
  v.set("cache_dirty_lost", r.cache_dirty_lost);
  v.set("interrupted_programs", r.interrupted_programs);
  v.set("paired_page_upsets", r.paired_page_upsets);
  v.set("map_updates_reverted", r.map_updates_reverted);
  v.set("uncorrectable_reads", r.uncorrectable_reads);
  // Only torture runs produce violations; omitting the zero keeps ordinary
  // checkpoints byte-identical to pre-torture ones.
  if (r.audit_violations != 0) v.set("audit_violations", r.audit_violations);
  Value failures = Value::array();
  for (const auto& f : r.failures) failures.push_back(to_json(f));
  v.set("failures", std::move(failures));
  // Telemetry rides along only when collected: metrics-off checkpoints stay
  // byte-identical to pre-obs ones, and resume across the two modes works.
  if (!r.metrics.empty()) v.set("metrics", to_json(r.metrics));
  return v;
}

platform::ExperimentResult result_from_json(const Value& v) {
  platform::ExperimentResult r;
  for_each_member(v, "experiment result", [&](const std::string& key, const Value& m) {
    if (key == "name") {
      r.name = read_string(m, key);
    } else if (key == "requests_submitted") {
      r.requests_submitted = read_u64(m, key);
    } else if (key == "write_acks") {
      r.write_acks = read_u64(m, key);
    } else if (key == "reads_completed") {
      r.reads_completed = read_u64(m, key);
    } else if (key == "faults_injected") {
      r.faults_injected = read_u32(m, key);
    } else if (key == "data_failures") {
      r.data_failures = read_u64(m, key);
    } else if (key == "fwa_failures") {
      r.fwa_failures = read_u64(m, key);
    } else if (key == "io_errors") {
      r.io_errors = read_u64(m, key);
    } else if (key == "verified_ok") {
      r.verified_ok = read_u64(m, key);
    } else if (key == "read_mismatches") {
      r.read_mismatches = read_u64(m, key);
    } else if (key == "requested_iops") {
      r.requested_iops = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "responded_iops") {
      r.responded_iops = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "mean_latency_us") {
      r.mean_latency_us = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "max_latency_us") {
      r.max_latency_us = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "active_seconds") {
      r.active_seconds = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "sim_seconds") {
      r.sim_seconds = read_double(m, key, kDoubleLo, kDoubleHi);
    } else if (key == "cache_dirty_lost") {
      r.cache_dirty_lost = read_u64(m, key);
    } else if (key == "interrupted_programs") {
      r.interrupted_programs = read_u64(m, key);
    } else if (key == "paired_page_upsets") {
      r.paired_page_upsets = read_u64(m, key);
    } else if (key == "map_updates_reverted") {
      r.map_updates_reverted = read_u64(m, key);
    } else if (key == "uncorrectable_reads") {
      r.uncorrectable_reads = read_u64(m, key);
    } else if (key == "audit_violations") {
      r.audit_violations = read_u64(m, key);
    } else if (key == "failures") {
      if (!m.is_array()) throw Error("expected an array", m.line, m.col, key);
      r.failures.reserve(m.items().size());
      for (const Value& f : m.items()) r.failures.push_back(failure_from_json(f));
    } else if (key == "metrics") {
      r.metrics = snapshot_from_json(m);
    } else {
      return false;
    }
    return true;
  });
  return r;
}

Value to_json(const CheckpointRecord& rec) {
  Value v = Value::object();
  v.set("spec", hash_string(rec.spec_hash));
  v.set("entry", rec.entry_index);
  v.set("seed", rec.seed);
  v.set("label", rec.label);
  v.set("status", runner::to_string(rec.status));
  v.set("wall_seconds", rec.wall_seconds);
  v.set("result", to_json(rec.result));
  return v;
}

CheckpointRecord checkpoint_record_from_json(const Value& v) {
  CheckpointRecord rec;
  bool saw_result = false;
  for_each_member(v, "checkpoint record", [&](const std::string& key, const Value& m) {
    if (key == "spec") {
      const std::string s = read_string(m, key);
      constexpr std::string_view kPrefix = "fnv1a:";
      if (s.size() != kPrefix.size() + 16 || s.rfind(kPrefix, 0) != 0) {
        throw Error("expected a \"fnv1a:<16 hex>\" content hash", m.line, m.col, key);
      }
      char* end = nullptr;
      rec.spec_hash = std::strtoull(s.c_str() + kPrefix.size(), &end, 16);
      if (end == nullptr || *end != '\0') {
        throw Error("malformed content hash \"" + s + "\"", m.line, m.col, key);
      }
    } else if (key == "entry") {
      rec.entry_index = read_u64(m, key);
    } else if (key == "seed") {
      rec.seed = read_u64(m, key);
    } else if (key == "label") {
      rec.label = read_string(m, key);
    } else if (key == "status") {
      const std::string s = read_string(m, key);
      if (!runner::status_from_string(s, rec.status)) {
        throw Error("unknown entry status \"" + s + "\"", m.line, m.col, key);
      }
    } else if (key == "wall_seconds") {
      rec.wall_seconds = read_double(m, key, 0.0, kDoubleHi);
    } else if (key == "result") {
      rec.result = result_from_json(m);
      saw_result = true;
    } else {
      return false;
    }
    return true;
  });
  if (!saw_result) throw Error("checkpoint record has no \"result\"", v.line, v.col, "result");
  return rec;
}

CheckpointFile load_checkpoint(const std::string& path) {
  CheckpointFile out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (errno == ENOENT) return out;  // first run: nothing checkpointed yet
    throw Error("cannot read checkpoint file " + path + ": " + std::strerror(errno), 0, 0);
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      out.records.push_back(checkpoint_record_from_json(parse(line)));
    } catch (const Error& e) {
      ++out.malformed_lines;
      // getline hits end-of-file only on a last line without its newline:
      // append() writes line and newline in one fwrite, so only a torn write
      // leaves it off.
      out.truncated_tail = in.eof();
      std::fprintf(stderr,
                   "[checkpoint] warning: %s:%zu unparseable record (%s); entry will re-run\n",
                   path.c_str(), line_no, e.what());
    }
  }
  return out;
}

CheckpointWriter::CheckpointWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw Error("cannot open checkpoint file " + path + ": " + std::strerror(errno), 0, 0);
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(const CheckpointRecord& rec) {
  // Render first, then hand the OS the whole line at once: a concurrent
  // reader (or a kill between appends) sees only whole records plus at most
  // one truncated tail — never an interleaving.
  const std::string line = canonical(to_json(rec)) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    throw Error("checkpoint append failed for " + path_ + ": " + std::strerror(errno), 0, 0);
  }
}

}  // namespace pofi::spec
