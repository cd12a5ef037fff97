// Durable campaign checkpoints: crash-safe JSONL of completed entries.
//
// A resilient suite run appends one record per finished entry to a
// checkpoint file; a restart with --resume loads the file, skips every entry
// whose record matches, and splices the stored results back in. Three
// invariants make resumed output bit-identical to an uninterrupted run:
//
//   * Keyed by content, not position: a record matches an entry only when
//     (spec content hash, flat entry index, resolved seed) all agree — edit
//     the spec, and stale records are ignored instead of corrupting results.
//   * Lossless results: every ExperimentResult field round-trips exactly.
//     Doubles ride the spec::Value writer (shortest round-trip form via
//     std::to_chars), so restored rows hash identically to fresh ones.
//   * Atomic appends: each record is rendered to one buffer and handed to
//     the OS as a single write, then flushed. A SIGKILL can truncate the
//     final line but never interleave two records; the loader tolerates (and
//     warns about) a trailing partial line, told apart from a whole but
//     malformed line by its missing newline.
//
// Only successful entries (is_success: ok / timed-out) are reused on
// resume; quarantined or cancelled entries re-run. A record with a key or
// status this build does not know counts as malformed, so its entry re-runs.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "platform/experiment.hpp"
#include "runner/progress.hpp"
#include "spec/value.hpp"

namespace pofi::spec {

// --- lossless ExperimentResult codec ---------------------------------------
[[nodiscard]] Value to_json(const platform::ExperimentResult& r);
[[nodiscard]] platform::ExperimentResult result_from_json(const Value& v);

/// One completed entry, as stored in the checkpoint file.
struct CheckpointRecord {
  std::uint64_t spec_hash = 0;   ///< campaign content hash (see CampaignSpec)
  std::uint64_t entry_index = 0; ///< flat index into CampaignSpec::entries
  std::uint64_t seed = 0;        ///< the entry's resolved experiment seed
  std::string label;
  runner::CampaignStatus status = runner::CampaignStatus::kOk;
  double wall_seconds = 0.0;
  platform::ExperimentResult result;
};

[[nodiscard]] Value to_json(const CheckpointRecord& rec);
[[nodiscard]] CheckpointRecord checkpoint_record_from_json(const Value& v);

/// Parsed checkpoint file.
struct CheckpointFile {
  std::vector<CheckpointRecord> records;
  /// Lines that failed to parse (a truncated tail from a killed run, or
  /// foreign garbage). Tolerated: the affected entries simply re-run.
  std::size_t malformed_lines = 0;
  /// The last line was malformed *and* lacks its newline: a torn append.
  bool truncated_tail = false;
};

/// Load `path`; a missing file is an empty checkpoint, any other IO error
/// throws spec::Error. Malformed lines are counted, warned to stderr, and
/// skipped.
[[nodiscard]] CheckpointFile load_checkpoint(const std::string& path);

/// Append-only checkpoint writer. Each append() renders the record to one
/// buffer, writes it with a single fwrite and flushes — see file header for
/// the crash-safety argument. Thread-compatible: the campaign runner already
/// serializes result hooks under its lock.
class CheckpointWriter {
 public:
  /// Opens `path` for appending (creating it); throws spec::Error on failure.
  explicit CheckpointWriter(const std::string& path);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Durably append one record; throws spec::Error on write failure.
  void append(const CheckpointRecord& rec);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace pofi::spec
