#include "kvs/minikv.hpp"

#include <memory>

namespace pofi::kvs {

MiniKv::MiniKv(sim::Simulator& simulator, blk::BlockQueue& queue, Config config)
    : sim_(simulator), queue_(queue), config_(config), wal_head_(config.wal_base) {}

// ------------------------------------------------------------ record codec

std::uint64_t MiniKv::encode_put(std::uint32_t key, std::uint32_t value) {
  return kPutMagic | (static_cast<std::uint64_t>(key & 0xFFFFFF) << 32) | value;
}

std::uint64_t MiniKv::encode_commit(std::uint64_t txn_id) {
  return kCommitMagic | (txn_id & 0x00FFFFFFFFFFFFFFULL);
}

bool MiniKv::is_put(std::uint64_t record) { return (record & (0xFFULL << 56)) == kPutMagic; }
bool MiniKv::is_commit(std::uint64_t record) {
  return (record & (0xFFULL << 56)) == kCommitMagic;
}
std::uint32_t MiniKv::put_key(std::uint64_t record) {
  return static_cast<std::uint32_t>((record >> 32) & 0xFFFFFF);
}
std::uint32_t MiniKv::put_value(std::uint64_t record) {
  return static_cast<std::uint32_t>(record & 0xFFFFFFFF);
}

// ------------------------------------------------------------- transactions

void MiniKv::put(std::uint32_t key, std::uint32_t value) {
  txn_buffer_.emplace_back(key & 0xFFFFFF, value);
}

std::optional<std::uint32_t> MiniKv::get(std::uint32_t key) const {
  const auto it = table_.find(key & 0xFFFFFF);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

void MiniKv::commit(std::function<void(bool ok)> done) {
  if (txn_buffer_.empty()) {
    if (done) done(true);
    return;
  }
  // Build the data-record pages for this transaction.
  std::vector<std::uint64_t> records;
  records.reserve(txn_buffer_.size());
  for (const auto& [key, value] : txn_buffer_) records.push_back(encode_put(key, value));

  const auto apply_locally = [this] {
    for (const auto& [key, value] : txn_buffer_) table_[key] = value;
    stats_.txns_committed += 1;
    txn_buffer_.clear();
  };

  if (config_.discipline == CommitDiscipline::kUnsafe) {
    // One request carries data + commit record; the ACK is trusted.
    records.push_back(encode_commit(next_txn_id_++));
    const auto pages = static_cast<std::uint32_t>(records.size());
    stats_.records_appended += pages;
    queue_.submit_write(wal_head_, std::move(records),
                        [this, apply_locally, done = std::move(done)](blk::RequestOutcome out) {
                          if (out.status != blk::IoStatus::kOk) {
                            ++stats_.commit_failures;
                            txn_buffer_.clear();
                            if (done) done(false);
                            return;
                          }
                          apply_locally();
                          if (done) done(true);
                        });
    wal_head_ += pages;
    return;
  }

  // Barriered: data records, FLUSH, commit record, FLUSH.
  const auto data_pages = static_cast<std::uint32_t>(records.size());
  stats_.records_appended += data_pages + 1;
  const ftl::Lpn data_lpn = wal_head_;
  const ftl::Lpn commit_lpn = wal_head_ + data_pages;
  wal_head_ += data_pages + 1;

  auto fail = [this, done](const char*) {
    ++stats_.commit_failures;
    txn_buffer_.clear();
    if (done) done(false);
  };
  auto fail_ptr = std::make_shared<decltype(fail)>(std::move(fail));

  queue_.submit_write(data_lpn, std::move(records), [this, apply_locally, commit_lpn, fail_ptr,
                                                     done](blk::RequestOutcome out) {
    if (out.status != blk::IoStatus::kOk) return (*fail_ptr)("data");
    queue_.submit_flush([this, apply_locally, commit_lpn, fail_ptr,
                         done](blk::RequestOutcome fout) {
      if (fout.status != blk::IoStatus::kOk) return (*fail_ptr)("flush1");
      queue_.submit_write(commit_lpn, {encode_commit(next_txn_id_++)},
                          [this, apply_locally, fail_ptr, done](blk::RequestOutcome cout) {
                            if (cout.status != blk::IoStatus::kOk) return (*fail_ptr)("commit");
                            queue_.submit_flush([this, apply_locally, fail_ptr,
                                                 done](blk::RequestOutcome f2out) {
                              if (f2out.status != blk::IoStatus::kOk) {
                                return (*fail_ptr)("flush2");
                              }
                              apply_locally();
                              if (done) done(true);
                            });
                          });
    });
  });
}

// ----------------------------------------------------------------- recovery

void MiniKv::recover(std::function<void(RecoveryStats)> done) {
  table_.clear();
  txn_buffer_.clear();
  auto st = std::make_shared<RecoveryStats>();
  auto pending =
      std::make_shared<std::vector<std::pair<std::uint32_t, std::uint32_t>>>();
  scan_next(std::move(st), std::move(pending), config_.wal_base, 0, config_.wal_base,
            std::move(done));
}

void MiniKv::scan_next(
    std::shared_ptr<RecoveryStats> st,
    std::shared_ptr<std::vector<std::pair<std::uint32_t, std::uint32_t>>> pending,
    ftl::Lpn cursor, std::uint32_t invalid_run, ftl::Lpn last_valid_end,
    std::function<void(RecoveryStats)> done) {
  // Scan in 64-page strides; stop after 64 consecutive invalid pages (a torn
  // multi-request transaction can leave holes, so one invalid page is not
  // the end of the log).
  constexpr std::uint32_t kStride = 64;
  constexpr std::uint32_t kStopAfterInvalid = 64;
  const ftl::Lpn end = config_.wal_base + config_.wal_pages;
  if (cursor >= end || invalid_run >= kStopAfterInvalid) {
    if (!pending->empty()) st->torn += 1;
    // Resume appending right after the last valid record, so the log stays
    // contiguous and a later recovery can still reach it.
    wal_head_ = last_valid_end;
    if (done) done(*st);
    return;
  }
  const auto pages = static_cast<std::uint32_t>(
      std::min<ftl::Lpn>(kStride, end - cursor));
  queue_.submit_read(cursor, pages, [this, st = std::move(st), pending = std::move(pending),
                                     cursor, pages, invalid_run, last_valid_end,
                                     done = std::move(done)](blk::RequestOutcome out) mutable {
    if (out.status != blk::IoStatus::kOk) {
      if (done) done(*st);
      return;
    }
    std::uint32_t run = invalid_run;
    ftl::Lpn valid_end = last_valid_end;
    for (std::uint32_t i = 0; i < pages; ++i) {
      const std::uint64_t rec = out.read_contents[i];
      st->pages_scanned += 1;
      if ((is_put(rec) || is_commit(rec)) && run > 0) st->holes += 1;
      if (is_put(rec)) {
        pending->emplace_back(put_key(rec), put_value(rec));
        run = 0;
        valid_end = cursor + i + 1;
      } else if (is_commit(rec)) {
        for (const auto& [key, value] : *pending) table_[key] = value;
        if (!pending->empty()) st->committed_found += 1;
        pending->clear();
        run = 0;
        valid_end = cursor + i + 1;
      } else {
        // Erased or garbage page: a hole in the log.
        if (!pending->empty()) {
          st->torn += 1;
          pending->clear();
        }
        run += 1;
      }
    }
    scan_next(std::move(st), std::move(pending), cursor + pages, run, valid_end,
              std::move(done));
  });
}

}  // namespace pofi::kvs
