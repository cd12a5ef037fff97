#include "ssd/ssd.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::ssd {

namespace {

nand::ChipArray::Config array_config(const SsdConfig& config) {
  return {std::max(1u, config.channels), config.chip};
}

}  // namespace

std::uint64_t lpn_space(const SsdConfig& config) {
  return ftl::Ftl::lpn_space(config.ftl,
                             nand::ChipArray::flat_geometry(array_config(config)));
}

Ssd::Ssd(sim::Simulator& simulator, SsdConfig config)
    : sim_(simulator), config_(std::move(config)) {
  chip_ = std::make_unique<nand::ChipArray>(sim_, array_config(config_));
  // The host-visible LPN space spans the whole array; size the FTL's dense
  // L2P from the effective (all-channels) geometry unless overridden.
  config_.ftl.lpn_capacity = lpn_space(config_);
  ftl_ = std::make_unique<ftl::Ftl>(sim_, *chip_, config_.ftl);
  cache_ = std::make_unique<WriteCache>(sim_, *ftl_, config_.cache);
  if (auto* m = sim_.metrics()) {
    obs_ncq_inflight_ = m->gauge("ssd.ncq.inflight");
    obs_ncq_pending_ = m->gauge("ssd.ncq.pending");
    m->counter_source("ssd.cmds.failed_unavailable", &stats_.commands_failed_unavailable);
    m->counter_source("ssd.power.losses", &stats_.power_losses);
    obs_span_mount_ = m->trace().intern("ssd.mount");
  }
}

void Ssd::reset() {
  chip_->reset();
  ftl_->reset();
  cache_->reset();
  ready_ = false;
  dying_ = false;
  epoch_ = 0;
  pending_.clear();
  inflight_cmds_.clear();
  plp_death_event_ = {};
  mount_event_ = {};
  ready_waiters_.clear();
  stats_ = SsdStats{};
}

void Ssd::obs_queue_gauges() {
  if (auto* m = sim_.metrics()) {
    m->set(obs_ncq_inflight_, inflight_cmds_.size());
    m->set(obs_ncq_pending_, pending_.size());
  }
}

sim::Duration Ssd::transfer_time(std::uint32_t pages) const {
  const double bytes =
      static_cast<double>(pages) * static_cast<double>(config_.chip.geometry.page_size_bytes);
  return sim::Duration::sec_f(bytes / (config_.link_mb_per_s * 1e6));
}

// ------------------------------------------------------------------ submit

void Ssd::submit(Command cmd) {
  if (!ready_) {
    ++stats_.commands_failed_unavailable;
    if (cmd.done) cmd.done(DeviceStatus::kDeviceUnavailable, {});
    return;
  }
  const std::uint64_t space = config_.ftl.lpn_capacity;
  if (cmd.op != Command::Op::kFlush && (cmd.pages > space || cmd.lpn > space - cmd.pages)) {
    if (cmd.done) cmd.done(DeviceStatus::kLbaOutOfRange, {});
    return;
  }
  ++stats_.commands_accepted;
  pending_.push_back(std::move(cmd));
  obs_queue_gauges();
  dispatch();
}

void Ssd::dispatch() {
  while (ready_ && inflight_cmds_.size() < config_.queue_depth && !pending_.empty()) {
    auto cmd = std::make_shared<Command>(std::move(pending_.front()));
    pending_.pop_front();
    inflight_cmds_.push_back(cmd);
    execute(cmd);
  }
  obs_queue_gauges();
}

void Ssd::execute(const CmdPtr& cmd) {
  switch (cmd->op) {
    case Command::Op::kWrite: run_write(cmd); break;
    case Command::Op::kRead: run_read(cmd); break;
    case Command::Op::kFlush: run_flush(cmd); break;
    case Command::Op::kTrim: run_trim(cmd); break;
  }
}

void Ssd::run_trim(const CmdPtr& cmd) {
  // TRIM/discard: drop the mapping for each page. The deallocation is a
  // mapping-table mutation like any other -- volatile until journaled, so a
  // power fault shortly after a TRIM can resurrect the "deleted" data (the
  // zombie-data effect known from real drives).
  const std::uint64_t epoch = epoch_;
  sim_.after(config_.command_overhead, [this, epoch, cmd] {
    if (epoch != epoch_) return;
    for (std::uint32_t i = 0; i < cmd->pages; ++i) {
      cache_->invalidate(cmd->lpn + i);
      ftl_->trim(cmd->lpn + i);
    }
    finish(cmd, DeviceStatus::kOk, {});
  });
}

void Ssd::run_flush(const CmdPtr& cmd) {
  // FLUSH: drain the volatile write cache, then persist the L2P journal
  // (withheld extents included); only then acknowledge. This is the barrier
  // databases rely on — and the only way to make an ACK mean "durable" on a
  // commodity drive.
  const std::uint64_t epoch = epoch_;
  sim_.after(config_.command_overhead, [this, epoch, cmd] {
    if (epoch != epoch_) return;
    auto persist_map = [this, epoch, cmd] {
      if (epoch != epoch_) return;
      ftl_->flush_all([this, epoch, cmd] {
        if (epoch != epoch_) return;
        finish(cmd, DeviceStatus::kOk, {});
      });
    };
    if (config_.cache_enabled) {
      cache_->flush_all(std::move(persist_map));
    } else {
      persist_map();
    }
  });
}

void Ssd::finish(const CmdPtr& cmd, DeviceStatus status, std::vector<std::uint64_t> contents) {
  const auto it = std::find(inflight_cmds_.begin(), inflight_cmds_.end(), cmd);
  if (it == inflight_cmds_.end()) return;  // already failed by die()
  inflight_cmds_.erase(it);
  ++stats_.commands_completed;
  if (status == DeviceStatus::kMediaError) ++stats_.commands_media_error;
  if (cmd->done) cmd->done(status, std::move(contents));
  dispatch();
}

// ------------------------------------------------------------------ writes

void Ssd::run_write(const CmdPtr& cmd) {
  const auto delay = config_.command_overhead + transfer_time(cmd->pages);
  const std::uint64_t epoch = epoch_;
  sim_.after(delay, [this, epoch, cmd] {
    if (epoch != epoch_) return;  // device died while the data was in flight
    if (config_.cache_enabled) {
      write_into_cache(cmd, 0);
    } else {
      write_through(cmd);
    }
  });
}

void Ssd::write_into_cache(const CmdPtr& cmd, std::uint32_t next_page) {
  while (next_page < cmd->pages) {
    if (!cache_->insert(cmd->lpn + next_page, cmd->contents[next_page])) {
      // Cache full of dirty data: wait for the flusher, then resume.
      const std::uint64_t epoch = epoch_;
      cache_->on_space([this, epoch, next_page, cmd] {
        if (epoch != epoch_) return;
        write_into_cache(cmd, next_page);
      });
      return;
    }
    ++next_page;
  }
  // All pages in DRAM: ACK. Durability comes later (or never).
  ++stats_.write_acks;
  finish(cmd, DeviceStatus::kOk, {});
}

void Ssd::write_through(const CmdPtr& cmd) {
  // Cache disabled: ACK only after every page is durably programmed.
  struct Progress {
    std::uint32_t remaining;
    bool failed = false;
  };
  auto progress = std::make_shared<Progress>(Progress{cmd->pages});
  const std::uint64_t epoch = epoch_;
  for (std::uint32_t i = 0; i < cmd->pages; ++i) {
    ftl_->write(cmd->lpn + i, cmd->contents[i], [this, epoch, progress, cmd](bool ok) {
      if (epoch != epoch_) return;
      if (!ok) progress->failed = true;
      if (--progress->remaining == 0) {
        if (!progress->failed) ++stats_.write_acks;
        finish(cmd, progress->failed ? DeviceStatus::kWriteError : DeviceStatus::kOk, {});
      }
    });
  }
}

// ------------------------------------------------------------------- reads

void Ssd::run_read(const CmdPtr& cmd) {
  struct Progress {
    std::vector<std::uint64_t> contents;
    std::uint32_t remaining;
    bool media_error = false;
  };
  auto progress = std::make_shared<Progress>();
  progress->contents.assign(cmd->pages, nand::kErasedContent);
  progress->remaining = cmd->pages;
  const std::uint64_t epoch = epoch_;

  auto page_done = [this, epoch, progress, cmd]() {
    if (--progress->remaining != 0) return;
    // Data assembled; ship it across the link.
    sim_.after(transfer_time(cmd->pages), [this, epoch, progress, cmd] {
      if (epoch != epoch_) return;
      finish(cmd, progress->media_error ? DeviceStatus::kMediaError : DeviceStatus::kOk,
             std::move(progress->contents));
    });
  };

  sim_.after(config_.command_overhead, [this, epoch, progress, cmd, page_done] {
    if (epoch != epoch_) return;
    for (std::uint32_t i = 0; i < cmd->pages; ++i) {
      const ftl::Lpn lpn = cmd->lpn + i;
      if (config_.cache_enabled) {
        if (const auto hit = cache_->lookup(lpn); hit.has_value()) {
          progress->contents[i] = *hit;
          page_done();
          continue;
        }
      }
      ftl_->read(lpn, [i, epoch, this, progress, page_done](const nand::OpResult& r) {
        if (epoch != epoch_) return;
        progress->contents[i] = r.content;
        if (r.status == nand::OpResult::Status::kUncorrectable) progress->media_error = true;
        page_done();
      });
    }
  });
}

// ------------------------------------------------------------------- power

void Ssd::on_brownout(sim::TimePoint now) {
  if (!config_.plp || dying_ || !ready_) return;
  POFI_DEBUG(now, "ssd", "%s: brownout detected, PLP emergency flush", config_.model.c_str());
  dying_ = true;
  ready_ = false;  // stop accepting host commands
  ftl_->set_emergency(true);
  cache_->flush_all([this] { ftl_->flush_journal_now(); });
}

void Ssd::on_power_lost(sim::TimePoint now) {
  if (config_.plp) {
    // Supercap keeps the electronics alive for the grace window.
    const std::uint64_t epoch = epoch_;
    plp_death_event_ = sim_.after(config_.plp_hold, [this, epoch] {
      if (epoch != epoch_) return;
      if (cache_->dirty_pages() == 0 && ftl_->mapping().volatile_count() == 0) {
        ++stats_.clean_plp_shutdowns;
      }
      die();
    });
    ready_ = false;
    dying_ = true;
    return;
  }
  POFI_DEBUG(now, "ssd", "%s: rail below %.2fV, device dead", config_.model.c_str(),
             config_.cutoff_volts);
  die();
}

void Ssd::die() {
  ++stats_.power_losses;
  if (auto* m = sim_.metrics()) m->trace().end(obs_span_mount_, sim_.now());  // fault mid-mount
  ++epoch_;
  ready_ = false;
  dying_ = false;
  sim_.cancel(plp_death_event_);
  sim_.cancel(mount_event_);

  // Media first (interrupt in-flight programs/erases), then controller DRAM.
  chip_->on_power_lost();
  ftl_->on_power_lost();
  cache_->on_power_lost();

  // Every outstanding command fails; the host sees device-unavailable.
  auto inflight = std::move(inflight_cmds_);
  inflight_cmds_.clear();
  for (const auto& c : inflight) {
    ++stats_.commands_failed_unavailable;
    if (c->done) c->done(DeviceStatus::kDeviceUnavailable, {});
  }
  for (auto& c : pending_) {
    ++stats_.commands_failed_unavailable;
    if (c.done) c.done(DeviceStatus::kDeviceUnavailable, {});
  }
  pending_.clear();
  obs_queue_gauges();
}

void Ssd::on_power_good(sim::TimePoint now) {
  if (ready_) return;
  POFI_DEBUG(now, "ssd", "%s: power good, mounting", config_.model.c_str());
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_mount_, now);
  chip_->on_power_good();
  const std::uint64_t epoch = epoch_;
  mount_event_ = sim_.after(config_.mount_delay, [this, epoch] {
    if (epoch != epoch_) return;
    ftl_->on_power_good();
    cache_->on_power_good();
    // Power-on recovery scan (no-op unless the FTL is configured for it);
    // the device only reports ready once the map is rebuilt.
    ftl_->recover_por([this, epoch] {
      if (epoch != epoch_) return;
      if (auto* m = sim_.metrics()) m->trace().end(obs_span_mount_, sim_.now());
      ready_ = true;
      dying_ = false;
      auto waiters = std::move(ready_waiters_);
      ready_waiters_.clear();
      for (auto& w : waiters) w();
    });
  });
}

}  // namespace pofi::ssd
