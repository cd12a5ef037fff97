#include "ftl/ftl.hpp"

#include <algorithm>
#include <cassert>

#include "ftl/dense.hpp"
#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::ftl {

namespace {
/// Content tags for journal pages live in a reserved namespace far away from
/// anything the host-side shadow store allocates.
constexpr std::uint64_t kJournalTagBase = 0x4A4F55524E414C00ULL;  // "JOURNAL\0"
}  // namespace

Ftl::Ftl(sim::Simulator& simulator, nand::ChipArray& chips, Config config)
    : sim_(simulator),
      chip_(chips),
      config_(config),
      map_(config.mapping_policy, config.extent_frame_pages, config.extent_min_fill,
           lpn_space(config, chips.geometry())),
      alloc_(chips.geometry()) {
  if (auto* m = sim_.metrics()) {
    m->counter_source("ftl.gc.invocations", &stats_.gc_invocations);
    m->counter_source("ftl.journal.flushes", &stats_.journal_flushes);
    m->counter_source("ftl.journal.entries_persisted", &stats_.journal_entries_persisted);
    m->counter_source("ftl.por.pages_scanned", &stats_.por_pages_scanned);
    m->counter_source("ftl.por.entries_recovered", &stats_.por_entries_recovered);
    m->counter_source("ftl.map.updates_reverted", &stats_.map_updates_reverted);
    m->counter_source("ftl.write.failed", &stats_.failed_writes);
    m->counter_source("ftl.badblock.retired", &stats_.badblocks_retired);
    obs_span_gc_ = m->trace().intern("ftl.gc");
    obs_span_journal_ = m->trace().intern("ftl.journal.flush");
    obs_span_por_ = m->trace().intern("ftl.por.scan");
  }
}

void Ftl::reset() {
  map_.reset();
  alloc_.reset();
  stats_ = FtlStats{};
  reverse_map_.clear();
  valid_count_.clear();
  powered_ = false;
  gc_running_ = false;
  journal_in_flight_ = false;
  emergency_ = false;
  draining_ = false;
  drain_waiters_.clear();
  journal_event_ = {};
  write_seq_ = 1;
  checkpoint_seq_ = 0;
  journal_horizon_ = 0;
  last_reverted_lpns_.clear();
  last_committed_lpn_.reset();
  torture_fault_ = TortureFault::kNone;
  por_candidates_.clear();
}

void Ftl::snapshot(StateImage& out) const {
  assert(quiescent());
  map_.snapshot(out.map);
  alloc_.snapshot(out.alloc);
  out.stats = stats_;
  out.reverse_map = reverse_map_;
  out.valid_count = valid_count_;
  out.powered = powered_;
  out.emergency = emergency_;
  out.write_seq = write_seq_;
  out.checkpoint_seq = checkpoint_seq_;
  out.journal_horizon = journal_horizon_;
  out.last_reverted_lpns = last_reverted_lpns_;
  out.last_committed_lpn = last_committed_lpn_;
  out.torture_fault = torture_fault_;
  out.por_candidates = por_candidates_;
  out.journal_timer.armed = sim_.event_pending(journal_event_);
  out.journal_timer.deadline = sim_.event_time(journal_event_);
  out.journal_timer.seq = journal_event_.raw();
}

void Ftl::restore(const StateImage& image, sim::TimerRearmer& rearm) {
  map_.restore(image.map);
  alloc_.restore(image.alloc);
  stats_ = image.stats;
  reverse_map_ = image.reverse_map;
  valid_count_ = image.valid_count;
  powered_ = image.powered;
  gc_running_ = false;
  journal_in_flight_ = false;
  emergency_ = image.emergency;
  draining_ = false;
  drain_waiters_.clear();
  journal_event_ = {};
  write_seq_ = image.write_seq;
  checkpoint_seq_ = image.checkpoint_seq;
  journal_horizon_ = image.journal_horizon;
  last_reverted_lpns_ = image.last_reverted_lpns;
  last_committed_lpn_ = image.last_committed_lpn;
  torture_fault_ = image.torture_fault;
  por_candidates_ = image.por_candidates;
  rearm.enqueue(image.journal_timer, [this, deadline = image.journal_timer.deadline] {
    journal_event_ = sim_.at(deadline, [this] {
      if (!powered_) return;
      journal_tick();
      schedule_journal_tick();
    });
  });
}

void Ftl::obs_gc_span_end() {
  if (auto* m = sim_.metrics()) m->trace().end(obs_span_gc_, sim_.now());
}

// ------------------------------------------------------------- host writes

void Ftl::write(Lpn lpn, std::uint64_t content, WriteCallback cb) {
  if (!powered_) {
    ++stats_.failed_writes;
    cb(false);
    return;
  }
  const auto ppn = alloc_.alloc_page(Stream::kHost);
  if (!ppn.has_value()) {
    ++stats_.failed_writes;
    cb(false);
    return;
  }
  const nand::Oob oob{lpn, write_seq_++};
  if (config_.por_scan) por_candidates_.insert(chip_.geometry().block_of(*ppn));
  if (config_.map_update_on_issue) {
    // Commodity behaviour: the L2P entry goes live (volatile) immediately;
    // the flash program races the next power fault.
    finish_host_write(lpn, *ppn, content);
    chip_.program(*ppn, content, oob, [this, cb = std::move(cb)](const nand::OpResult& r) mutable {
      if (!r.ok()) ++stats_.failed_writes;
      cb(r.ok());
    });
    return;
  }
  chip_.program(*ppn, content, oob,
                [this, lpn, ppn = *ppn, content,
                 cb = std::move(cb)](const nand::OpResult& r) mutable {
                  if (!r.ok()) {
                    ++stats_.failed_writes;
                    cb(false);
                    return;
                  }
                  finish_host_write(lpn, ppn, content);
                  cb(true);
                });
}

void Ftl::finish_host_write(Lpn lpn, Ppn ppn, std::uint64_t /*content*/) {
  ++stats_.host_writes;
  if (const auto old = map_.lookup(lpn); old.has_value()) invalidate(*old);
  map_.update(lpn, ppn);
  stats_.extents_coalesced = map_.extents_closed_full();
  make_valid(lpn, ppn);
  if (map_.committable_count() >= config_.journal_batch_threshold && !journal_in_flight_) {
    journal_tick();
  }
  maybe_start_gc();
}

void Ftl::invalidate(Ppn ppn) {
  if (ppn < reverse_map_.size()) reverse_map_[ppn] = kUnmappedLpn;
  const BlockId b = chip_.geometry().block_of(ppn);
  if (b < valid_count_.size() && valid_count_[b] > 0) --valid_count_[b];
}

void Ftl::make_valid(Lpn lpn, Ppn ppn) {
  grow_dense(reverse_map_, ppn, chip_.geometry().total_pages(), kUnmappedLpn);
  reverse_map_[ppn] = lpn;
  const BlockId b = chip_.geometry().block_of(ppn);
  grow_dense(valid_count_, b, chip_.geometry().total_blocks(), 0U);
  ++valid_count_[b];
}

// -------------------------------------------------------------- host reads

void Ftl::read(Lpn lpn, ReadCallback cb) {
  ++stats_.host_reads;
  const auto ppn = map_.lookup(lpn);
  if (!ppn.has_value()) {
    cb(nand::OpResult{powered_ ? nand::OpResult::Status::kOk : nand::OpResult::Status::kPowerLost});
    return;
  }
  chip_.read(*ppn, std::move(cb));
}

void Ftl::trim(Lpn lpn) {
  const auto ppn = map_.lookup(lpn);
  if (!ppn.has_value()) return;
  invalidate(*ppn);
  map_.remove(lpn);
}

// ----------------------------------------------------------------- journal

void Ftl::schedule_journal_tick() {
  journal_event_ = sim_.after(config_.journal_interval, [this] {
    if (!powered_) return;
    journal_tick();
    schedule_journal_tick();
  });
}

void Ftl::journal_tick() {
  if (journal_in_flight_ || !powered_) return;
  const std::uint64_t batch = map_.begin_persist_batch(emergency_ || draining_);
  if (batch == 0) return;
  persist_batch(batch);
}

void Ftl::set_emergency(bool on) {
  emergency_ = on;
  if (on) journal_tick();
}

void Ftl::flush_all(std::function<void()> done) {
  if (map_.volatile_count() == 0) {
    if (done) done();
    return;
  }
  drain_waiters_.push_back(std::move(done));
  draining_ = true;
  journal_tick();
}

void Ftl::persist_batch(std::uint64_t batch) {
  const auto ppn = alloc_.alloc_page(Stream::kJournal);
  if (!ppn.has_value()) {
    // No journal space: the members stay volatile and rejoin the dirty set,
    // so the next tick recuts them.
    map_.abort_batch(batch);
    return;
  }
  journal_in_flight_ = true;
  const std::size_t entries = map_.batch_size(batch);
  const std::uint64_t cut_seq = write_seq_ - 1;
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_journal_, sim_.now());
  chip_.program(*ppn, kJournalTagBase | batch, [this, batch, entries,
                                                cut_seq](const nand::OpResult& r) {
    journal_in_flight_ = false;
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_journal_, sim_.now());
    if (!r.ok()) {
      // Failed program (a power loss drops the callback instead): the
      // members stay volatile and the next tick recuts them.
      map_.abort_batch(batch);
      return;
    }
    // Batches commit in cut order (journal_in_flight_ serialises them), so
    // cut_seq is monotone and the horizon only advances. Record the newest
    // journaled LPN before the batch bookkeeping is consumed (fault hook).
    const auto& lpns = map_.batch_lpns(batch);
    if (!lpns.empty()) last_committed_lpn_ = lpns.back();
    map_.commit_batch(batch);
    journal_horizon_ = cut_seq;
    ++stats_.journal_flushes;
    stats_.journal_entries_persisted += entries;
    if (map_.volatile_count() == 0) {
      // Full checkpoint: everything stamped up to cut_seq is durable.
      checkpoint_seq_ = cut_seq;
      por_candidates_.clear();
    }
    // PLP/FLUSH drain: chase the map to fully-persisted.
    if ((emergency_ || draining_) && powered_) journal_tick();
    if (draining_ && map_.volatile_count() == 0) {
      draining_ = false;
      auto waiters = std::move(drain_waiters_);
      drain_waiters_.clear();
      for (auto& w : waiters) w();
    }
  });
}

void Ftl::flush_journal_now() { journal_tick(); }

// --------------------------------------------------------------------- GC

void Ftl::maybe_start_gc() {
  if (gc_running_ || !powered_) return;
  if (alloc_.free_blocks() >= config_.gc_low_watermark) return;
  // Greedy victim: sealed block with the fewest valid pages.
  const auto& sealed = alloc_.sealed_blocks();
  if (sealed.empty()) return;
  BlockId victim = sealed.front();
  std::uint32_t best_valid = ~0U;
  for (const BlockId b : sealed) {
    const std::uint32_t v = b < valid_count_.size() ? valid_count_[b] : 0;
    if (v < best_valid) {
      best_valid = v;
      victim = b;
    }
  }
  gc_running_ = true;
  ++stats_.gc_invocations;
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_gc_, sim_.now());
  alloc_.unseal(victim);
  gc_relocate_next(victim, 0);
}

void Ftl::gc_relocate_next(BlockId victim, std::uint32_t page_index) {
  if (!powered_) {
    gc_running_ = false;
    obs_gc_span_end();
    return;
  }
  const auto& geom = chip_.geometry();
  if (page_index >= geom.pages_per_block) {
    gc_erase_victim(victim);
    return;
  }
  const Ppn ppn = geom.first_page(victim) + page_index;
  const Lpn lpn = ppn < reverse_map_.size() ? reverse_map_[ppn] : kUnmappedLpn;
  if (lpn == kUnmappedLpn || map_.lookup(lpn) != std::optional<Ppn>(ppn)) {
    gc_relocate_next(victim, page_index + 1);  // page is stale
    return;
  }
  chip_.read(ppn, [this, victim, page_index, lpn, ppn](const nand::OpResult& r) {
    if (!powered_) {
      gc_running_ = false;
      obs_gc_span_end();
      return;
    }
    if (r.status == nand::OpResult::Status::kPowerLost) {
      gc_running_ = false;
      obs_gc_span_end();
      return;
    }
    // Relocate whatever the array returned — if ECC failed, the corruption
    // propagates, exactly as on a real drive.
    const auto dst = alloc_.alloc_page(Stream::kGc);
    if (!dst.has_value()) {
      gc_running_ = false;
      obs_gc_span_end();
      return;
    }
    const nand::Oob oob{lpn, write_seq_++};
    if (config_.por_scan) por_candidates_.insert(chip_.geometry().block_of(*dst));
    chip_.program(*dst, r.content, oob, [this, victim, page_index, lpn, ppn,
                                         dst = *dst](const nand::OpResult& pr) {
      if (!powered_ || !pr.ok()) {
        gc_running_ = false;
        obs_gc_span_end();
        return;
      }
      if (map_.lookup(lpn) == std::optional<Ppn>(ppn)) {
        invalidate(ppn);
        map_.update(lpn, dst);
        make_valid(lpn, dst);
        ++stats_.gc_relocations;
      }
      gc_relocate_next(victim, page_index + 1);
    });
  });
}

void Ftl::gc_erase_victim(BlockId victim) {
  chip_.erase(victim, [this, victim](const nand::OpResult& r) {
    gc_running_ = false;
    obs_gc_span_end();
    if (!powered_) return;
    if (r.ok()) {
      if (victim < valid_count_.size()) valid_count_[victim] = 0;
      alloc_.on_block_erased(victim);
      ++stats_.gc_erases;
    } else if (r.status == nand::OpResult::Status::kBadBlock) {
      // The victim wore out under us: it never returns to the free pool —
      // the array-level equivalent of a bad-block remap.
      ++stats_.badblocks_retired;
    }
    maybe_start_gc();
  });
}

// ------------------------------------------------------------------- power

void Ftl::on_power_lost() {
  powered_ = false;
  sim_.cancel(journal_event_);
  journal_in_flight_ = false;
  gc_running_ = false;
  if (auto* m = sim_.metrics()) {
    // Close whatever the fault interrupted; unmatched ends are no-ops.
    m->trace().end(obs_span_journal_, sim_.now());
    m->trace().end(obs_span_gc_, sim_.now());
    m->trace().end(obs_span_por_, sim_.now());
  }
  emergency_ = false;
  draining_ = false;
  drain_waiters_.clear();

  const auto reverted = map_.on_power_lost();
  stats_.map_updates_reverted += reverted.size();
  last_reverted_lpns_.clear();
  for (const auto& r : reverted) {
    if (r.dropped_ppn.has_value()) invalidate(*r.dropped_ppn);
    if (r.restored_ppn.has_value()) make_valid(r.lpn, *r.restored_ppn);
    last_reverted_lpns_.push_back(r.lpn);
  }
  std::sort(last_reverted_lpns_.begin(), last_reverted_lpns_.end());

  // Deliberately broken recovery (torture self-tests): forget the newest
  // durably-journaled mapping without repairing valid counts or the reverse
  // map — the footprint of a replay that skipped its last record.
  if (torture_fault_ == TortureFault::kSkipLastJournalRecord &&
      last_committed_lpn_.has_value() &&
      map_.lookup(*last_committed_lpn_).has_value()) {
    map_.debug_clear_slot(*last_committed_lpn_);
  }
}

void Ftl::on_power_good() {
  powered_ = true;
  alloc_.abandon_active_blocks();
  schedule_journal_tick();
}

// --------------------------------------------------------- power-on recovery

void Ftl::recover_por(std::function<void()> done) {
  if (!config_.por_scan || por_candidates_.empty()) {
    if (done) done();
    return;
  }
  // Gather every page of every candidate block; the scan reads their spare
  // areas through the normal chip path, so mount time grows realistically
  // with the amount of unjournaled data.
  // Scan in block order, not hash-set order: the candidate set's iteration
  // order reflects its insertion/rehash history, which a snapshot restore
  // cannot reproduce — and the scan order shapes the mount's event stream.
  std::vector<BlockId> candidates(por_candidates_.begin(), por_candidates_.end());
  std::sort(candidates.begin(), candidates.end());
  auto pages = std::make_shared<std::vector<Ppn>>();
  for (const BlockId b : candidates) {
    for (std::uint32_t p = 0; p < chip_.geometry().pages_per_block; ++p) {
      pages->push_back(chip_.geometry().first_page(b) + p);
    }
  }
  auto hits = std::make_shared<std::unordered_map<Lpn, PorHit>>();
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_por_, sim_.now());
  por_scan_next(std::move(pages), 0, std::move(hits), std::move(done));
}

void Ftl::por_scan_next(std::shared_ptr<std::vector<Ppn>> pages, std::size_t index,
                        std::shared_ptr<std::unordered_map<Lpn, PorHit>> hits,
                        std::function<void()> done) {
  if (!powered_) return;  // a second fault killed the scan; next mount retries
  if (index >= pages->size()) {
    por_apply(*hits, std::move(done));
    return;
  }
  const Ppn ppn = (*pages)[index];
  chip_.read(ppn, [this, pages = std::move(pages), index, hits = std::move(hits),
                   done = std::move(done), ppn](const nand::OpResult& r) mutable {
    ++stats_.por_pages_scanned;
    if (r.ok() && r.oob.valid() && r.oob.seq > checkpoint_seq_) {
      auto& hit = (*hits)[r.oob.lpn];
      if (r.oob.seq > hit.seq) hit = PorHit{ppn, r.oob.seq};
    }
    por_scan_next(std::move(pages), index + 1, std::move(hits), std::move(done));
  });
}

void Ftl::por_apply(const std::unordered_map<Lpn, PorHit>& hits, std::function<void()> done) {
  // Apply hits one at a time; each may need an extra OOB read to compare
  // sequence numbers with the currently-mapped copy. The continuation is an
  // explicit member function (like por_scan_next) rather than a
  // self-capturing std::function — a function owning the shared_ptr to
  // itself never reaches refcount zero.
  auto remaining = std::make_shared<std::vector<std::pair<Lpn, PorHit>>>(hits.begin(),
                                                                         hits.end());
  // Apply in LPN order: hit-map iteration order is hash-table history, and
  // the apply order shapes the mount's event stream (one read per apply).
  std::sort(remaining->begin(), remaining->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  por_apply_next(std::move(remaining), std::move(done));
}

void Ftl::por_apply_next(std::shared_ptr<std::vector<std::pair<Lpn, PorHit>>> remaining,
                         std::function<void()> done) {
  if (!powered_) return;  // a second fault killed the recovery; next mount retries
  if (remaining->empty()) {
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_por_, sim_.now());
    // Checkpoint the recovered map so the next crash starts clean.
    flush_all([done = std::move(done)] {
      if (done) done();
    });
    return;
  }
  const auto [lpn, hit] = remaining->back();
  remaining->pop_back();
  const auto current = map_.lookup(lpn);
  if (!current.has_value()) {
    install_por_hit(lpn, hit, current);
    por_apply_next(std::move(remaining), std::move(done));
    return;
  }
  if (*current == hit.ppn) {  // already mapped to the recovered copy
    por_apply_next(std::move(remaining), std::move(done));
    return;
  }
  // Compare against the mapped copy's stamp; only newer data wins.
  chip_.read(*current, [this, lpn = lpn, hit = hit, current, remaining = std::move(remaining),
                        done = std::move(done)](const nand::OpResult& r) mutable {
    if (!powered_) return;
    if (!(r.ok() && r.oob.valid()) || r.oob.seq < hit.seq) {
      install_por_hit(lpn, hit, current);
    }
    por_apply_next(std::move(remaining), std::move(done));
  });
}

void Ftl::install_por_hit(Lpn lpn, const PorHit& hit, std::optional<Ppn> current) {
  if (current.has_value()) invalidate(*current);
  map_.update(lpn, hit.ppn);
  make_valid(lpn, hit.ppn);
  ++stats_.por_entries_recovered;
}

}  // namespace pofi::ftl
