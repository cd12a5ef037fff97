#include "spec/checkpoint.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "spec/codec.hpp"
#include "spec/fields.hpp"
#include "spec/obs_json.hpp"

namespace pofi::spec {

namespace {

constexpr double kDoubleLo = -1e300;
constexpr double kDoubleHi = 1e300;

using fields::Choice;
using fields::Integer;
using fields::Items;
using fields::Real;
using fields::Text;

using platform::FailureRecord;
constexpr fields::List kFailure{"failure record",
                                Integer{"packet_id", &FailureRecord::packet_id},
                                Choice{"type", &FailureRecord::type},
                                Integer{"fault_index", &FailureRecord::fault_index},
                                Real{"ack_to_fault_ms", &FailureRecord::ack_to_fault_ms,
                                     kDoubleLo, kDoubleHi},
                                Integer{"pages_garbage", &FailureRecord::pages_garbage},
                                Integer{"pages_reverted", &FailureRecord::pages_reverted},
                                Choice{"op", &FailureRecord::op}};

/// "audit_violations" is omitted when zero (only torture runs produce
/// violations, so ordinary checkpoints stay byte-identical to pre-torture
/// ones) and "metrics" when empty (metrics-off checkpoints stay identical to
/// pre-obs ones, and resume works across the two modes).
using platform::ExperimentResult;
constexpr fields::List kResult{
    "experiment result",
    Text{"name", &ExperimentResult::name},
    Integer{"requests_submitted", &ExperimentResult::requests_submitted},
    Integer{"write_acks", &ExperimentResult::write_acks},
    Integer{"reads_completed", &ExperimentResult::reads_completed},
    Integer{"faults_injected", &ExperimentResult::faults_injected},
    Integer{"data_failures", &ExperimentResult::data_failures},
    Integer{"fwa_failures", &ExperimentResult::fwa_failures},
    Integer{"io_errors", &ExperimentResult::io_errors},
    Integer{"verified_ok", &ExperimentResult::verified_ok},
    Integer{"read_mismatches", &ExperimentResult::read_mismatches},
    Real{"requested_iops", &ExperimentResult::requested_iops, kDoubleLo, kDoubleHi},
    Real{"responded_iops", &ExperimentResult::responded_iops, kDoubleLo, kDoubleHi},
    Real{"mean_latency_us", &ExperimentResult::mean_latency_us, kDoubleLo, kDoubleHi},
    Real{"max_latency_us", &ExperimentResult::max_latency_us, kDoubleLo, kDoubleHi},
    Real{"active_seconds", &ExperimentResult::active_seconds, kDoubleLo, kDoubleHi},
    Real{"sim_seconds", &ExperimentResult::sim_seconds, kDoubleLo, kDoubleHi},
    Integer{"cache_dirty_lost", &ExperimentResult::cache_dirty_lost},
    Integer{"interrupted_programs", &ExperimentResult::interrupted_programs},
    Integer{"paired_page_upsets", &ExperimentResult::paired_page_upsets},
    Integer{"map_updates_reverted", &ExperimentResult::map_updates_reverted},
    Integer{"uncorrectable_reads", &ExperimentResult::uncorrectable_reads},
    Integer{"audit_violations", &ExperimentResult::audit_violations},
    Items{"failures", &ExperimentResult::failures, &kFailure}};

/// "spec" (the fnv1a: hash) and "result" (required) are hand-written
/// around the list.
constexpr fields::List kRecord{"checkpoint record",
                               Integer{"entry", &CheckpointRecord::entry_index},
                               Integer{"seed", &CheckpointRecord::seed},
                               Text{"label", &CheckpointRecord::label},
                               Choice{"status", &CheckpointRecord::status},
                               Real{"wall_seconds", &CheckpointRecord::wall_seconds, 0.0,
                                    kDoubleHi}};

}  // namespace

Value to_json(const ExperimentResult& r) {
  Value v = kResult.write(r);
  if (r.audit_violations == 0) fields::erase(v, "audit_violations");
  if (!r.metrics.empty()) v.set("metrics", to_json(r.metrics));
  return v;
}

ExperimentResult result_from_json(const Value& v) {
  ExperimentResult r;
  kResult.read(r, v, [&](const std::string& key, const Value& m) {
    if (key != "metrics") return false;
    r.metrics = snapshot_from_json(m);
    return true;
  });
  return r;
}

Value to_json(const CheckpointRecord& rec) {
  Value v = Value::object();
  v.set("spec", hash_string(rec.spec_hash));
  kRecord.write(rec, v);
  v.set("result", to_json(rec.result));
  return v;
}

CheckpointRecord checkpoint_record_from_json(const Value& v) {
  CheckpointRecord rec;
  bool saw_result = false;
  kRecord.read(rec, v, [&](const std::string& key, const Value& m) {
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
