// MiniKv: a write-ahead-logged key/value store built on the public block
// API — the "application level operations" the paper's related-work section
// lists among the parameters prior testbeds neglected (§II).
//
// The store appends fixed-size WAL records (one page each): a transaction is
// a run of PUT records followed by one COMMIT record. Two commit disciplines
// are provided:
//
//   kUnsafe    — the whole transaction ships as one write request and the
//                ACK is trusted. Fast, and exactly as durable as the drive's
//                volatile cache (i.e., not).
//   kBarriered — data records, FLUSH, commit record, FLUSH. The textbook
//                fsync dance: a transaction is reported committed only when
//                it actually is.
//
// Recovery scans the log, replays complete transactions, and reports torn
// ones and holes — so a campaign can measure committed-transaction
// durability, atomicity and log prefix-ness under power faults, per
// discipline and per drive (kvs/fault_drill.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "blk/queue.hpp"
#include "sim/simulator.hpp"

namespace pofi::kvs {

enum class CommitDiscipline : std::uint8_t {
  kUnsafe,     ///< trust the write ACK
  kBarriered,  ///< FLUSH before and after the commit record
};

[[nodiscard]] constexpr const char* to_string(CommitDiscipline d) {
  return d == CommitDiscipline::kUnsafe ? "unsafe (trust ACK)" : "barriered (FLUSH)";
}

struct KvStats {
  std::uint64_t txns_committed = 0;  ///< commits acknowledged to the caller
  std::uint64_t records_appended = 0;
  std::uint64_t commit_failures = 0;  ///< device errors during commit
};

struct RecoveryStats {
  std::uint64_t committed_found = 0;  ///< transactions fully recovered
  std::uint64_t torn = 0;             ///< PUT runs with no commit record
  /// Valid records found after an invalid page: each one means the
  /// surviving log is not a clean prefix.
  std::uint64_t holes = 0;
  std::uint64_t pages_scanned = 0;
};

class MiniKv {
 public:
  struct Config {
    ftl::Lpn wal_base = 0;
    std::uint32_t wal_pages = 65536;
    CommitDiscipline discipline = CommitDiscipline::kUnsafe;
  };

  MiniKv(sim::Simulator& simulator, blk::BlockQueue& queue, Config config);

  MiniKv(const MiniKv&) = delete;
  MiniKv& operator=(const MiniKv&) = delete;

  // --- Transactions ----------------------------------------------------------
  /// Buffer a put into the current transaction (keys are 24-bit, values
  /// 32-bit — both packed into one WAL record page).
  void put(std::uint32_t key, std::uint32_t value);

  /// Commit the buffered puts. `done(true)` means the store considers the
  /// transaction durable under its discipline; with kUnsafe that belief can
  /// be wrong, which is the point of the experiment.
  void commit(std::function<void(bool ok)> done);

  /// In-memory read of the latest committed value.
  [[nodiscard]] std::optional<std::uint32_t> get(std::uint32_t key) const;

  // --- Crash recovery ---------------------------------------------------------
  /// Scan the WAL from the base, rebuild the table from complete
  /// transactions, position the append cursor after the last valid record.
  void recover(std::function<void(RecoveryStats)> done);

  [[nodiscard]] const KvStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t committed_txn_count() const { return stats_.txns_committed; }
  [[nodiscard]] std::size_t table_size() const { return table_.size(); }
  /// Keys committed in-memory (for campaign ground truth).
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint32_t>& table() const {
    return table_;
  }

  // --- Record encoding (exposed for tests) ------------------------------------
  static constexpr std::uint64_t kPutMagic = 0x51ULL << 56;
  static constexpr std::uint64_t kCommitMagic = 0xC0ULL << 56;
  [[nodiscard]] static std::uint64_t encode_put(std::uint32_t key, std::uint32_t value);
  [[nodiscard]] static std::uint64_t encode_commit(std::uint64_t txn_id);
  [[nodiscard]] static bool is_put(std::uint64_t record);
  [[nodiscard]] static bool is_commit(std::uint64_t record);
  [[nodiscard]] static std::uint32_t put_key(std::uint64_t record);
  [[nodiscard]] static std::uint32_t put_value(std::uint64_t record);

 private:
  void scan_next(std::shared_ptr<RecoveryStats> st,
                 std::shared_ptr<std::vector<std::pair<std::uint32_t, std::uint32_t>>> pending,
                 ftl::Lpn cursor, std::uint32_t invalid_run, ftl::Lpn last_valid_end,
                 std::function<void(RecoveryStats)> done);

  sim::Simulator& sim_;
  blk::BlockQueue& queue_;
  Config config_;
  ftl::Lpn wal_head_;  ///< next page to append
  std::uint64_t next_txn_id_ = 1;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> txn_buffer_;
  std::unordered_map<std::uint32_t, std::uint32_t> table_;
  KvStats stats_;
};

}  // namespace pofi::kvs
