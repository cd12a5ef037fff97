#include "blk/queue.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace pofi::blk {

BlockQueue::BlockQueue(sim::Simulator& simulator, ssd::Ssd& device, Config config)
    : sim_(simulator), device_(device), config_(config) {
  if (auto* m = sim_.metrics()) {
    obs_outstanding_ = m->gauge("blk.queue.outstanding");
    m->counter_source("blk.timeouts", &stats_.timeouts);
    // Sub-requests per host request; >1 means the splitter kicked in.
    obs_split_fanout_ = m->histogram("blk.split.fanout", {1, 2, 4, 8, 16, 32});
  }
}

void BlockQueue::obs_outstanding_gauge() {
  if (auto* m = sim_.metrics()) m->set(obs_outstanding_, live_.size());
}

BlockQueue::BlockQueue(sim::Simulator& simulator, ssd::Ssd& device)
    : BlockQueue(simulator, device, Config{}) {}

std::uint64_t BlockQueue::submit_write(ftl::Lpn lpn, std::vector<std::uint64_t> contents,
                                       Completion done) {
  const auto pages = static_cast<std::uint32_t>(contents.size());
  return submit(true, lpn, pages, std::move(contents), std::move(done));
}

std::uint64_t BlockQueue::submit_read(ftl::Lpn lpn, std::uint32_t pages, Completion done) {
  return submit(false, lpn, pages, {}, std::move(done));
}

std::uint64_t BlockQueue::submit_discard(ftl::Lpn lpn, std::uint32_t pages,
                                         Completion done) {
  const std::uint64_t id = next_id_++;
  ++stats_.submitted;
  LiveRequest req;
  req.id = id;
  req.is_write = true;
  req.lpn = lpn;
  req.pages = pages;
  req.subs_total = 1;
  req.queued_at = sim_.now();
  req.done = std::move(done);
  trace_.record(TraceEvent{sim_.now(), Action::kQueued, id, 0, lpn, pages, true});
  req.timeout_event = sim_.after(config_.request_timeout, [this, id] { fire_timeout(id); });
  live_.emplace(id, std::move(req));
  obs_outstanding_gauge();
  if (auto* m = sim_.metrics()) m->record(obs_split_fanout_, 1);

  trace_.record(TraceEvent{sim_.now(), Action::kDispatch, id, 0, lpn, pages, true});
  ssd::Command cmd;
  cmd.op = ssd::Command::Op::kTrim;
  cmd.lpn = lpn;
  cmd.pages = pages;
  cmd.done = [this, id, lpn, pages](ssd::DeviceStatus status, std::vector<std::uint64_t> data) {
    sub_finished(id, 0, lpn, pages, status, std::move(data));
  };
  device_.submit(std::move(cmd));
  return id;
}

std::uint64_t BlockQueue::submit_flush(Completion done) {
  const std::uint64_t id = next_id_++;
  ++stats_.submitted;
  LiveRequest req;
  req.id = id;
  req.is_write = true;  // flushes count with the write path in traces
  req.subs_total = 1;
  req.queued_at = sim_.now();
  req.done = std::move(done);
  trace_.record(TraceEvent{sim_.now(), Action::kQueued, id, 0, 0, 0, true});
  req.timeout_event = sim_.after(config_.request_timeout, [this, id] { fire_timeout(id); });
  live_.emplace(id, std::move(req));
  obs_outstanding_gauge();
  if (auto* m = sim_.metrics()) m->record(obs_split_fanout_, 1);

  trace_.record(TraceEvent{sim_.now(), Action::kDispatch, id, 0, 0, 0, true});
  ssd::Command cmd;
  cmd.op = ssd::Command::Op::kFlush;
  cmd.done = [this, id](ssd::DeviceStatus status, std::vector<std::uint64_t> data) {
    sub_finished(id, 0, 0, 0, status, std::move(data));
  };
  device_.submit(std::move(cmd));
  return id;
}

std::uint64_t BlockQueue::submit(bool is_write, ftl::Lpn lpn, std::uint32_t pages,
                                 std::vector<std::uint64_t> contents, Completion done) {
  const std::uint64_t id = next_id_++;
  ++stats_.submitted;

  LiveRequest req;
  req.id = id;
  req.is_write = is_write;
  req.lpn = lpn;
  req.pages = pages;
  req.queued_at = sim_.now();
  req.done = std::move(done);
  if (!is_write) req.read_contents.assign(pages, nand::kErasedContent);

  trace_.record(TraceEvent{sim_.now(), Action::kQueued, id, 0, lpn, pages, is_write});

  // Split into sub-requests of at most max_pages_per_subrequest.
  const std::uint32_t max_sub = std::max(1u, config_.max_pages_per_subrequest);
  const std::uint32_t n_subs = (pages + max_sub - 1) / max_sub;
  req.subs_total = n_subs;
  if (n_subs > 1) stats_.splits += n_subs - 1;

  req.timeout_event =
      sim_.after(config_.request_timeout, [this, id] { fire_timeout(id); });
  live_.emplace(id, std::move(req));
  obs_outstanding_gauge();
  if (auto* m = sim_.metrics()) m->record(obs_split_fanout_, n_subs);

  for (std::uint32_t s = 0; s < n_subs; ++s) {
    const ftl::Lpn sub_lpn = lpn + static_cast<ftl::Lpn>(s) * max_sub;
    const std::uint32_t sub_pages = std::min(max_sub, pages - s * max_sub);
    if (n_subs > 1) {
      trace_.record(TraceEvent{sim_.now(), Action::kSplit, id, s, sub_lpn, sub_pages, is_write});
    }
    trace_.record(TraceEvent{sim_.now(), Action::kDispatch, id, s, sub_lpn, sub_pages, is_write});

    ssd::Command cmd;
    cmd.op = is_write ? ssd::Command::Op::kWrite : ssd::Command::Op::kRead;
    cmd.lpn = sub_lpn;
    cmd.pages = sub_pages;
    if (is_write) {
      cmd.contents.assign(contents.begin() + s * max_sub,
                          contents.begin() + s * max_sub + sub_pages);
    }
    cmd.done = [this, id, s, sub_lpn, sub_pages](ssd::DeviceStatus status,
                                                 std::vector<std::uint64_t> data) {
      sub_finished(id, s, sub_lpn, sub_pages, status, std::move(data));
    };
    device_.submit(std::move(cmd));
  }
  return id;
}

void BlockQueue::sub_finished(std::uint64_t id, std::uint32_t sub_index, ftl::Lpn sub_lpn,
                              std::uint32_t sub_pages, ssd::DeviceStatus status,
                              std::vector<std::uint64_t> contents) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;  // request already timed out
  LiveRequest& req = it->second;

  const bool ok =
      status == ssd::DeviceStatus::kOk || status == ssd::DeviceStatus::kMediaError;
  if (ok) {
    trace_.record(
        TraceEvent{sim_.now(), Action::kComplete, id, sub_index, sub_lpn, sub_pages, req.is_write});
    req.subs_done += 1;
    if (status == ssd::DeviceStatus::kMediaError) req.any_media_error = true;
    if (!req.is_write && !contents.empty()) {
      const std::size_t base = (sub_lpn - req.lpn);
      for (std::size_t i = 0; i < contents.size() && base + i < req.read_contents.size(); ++i) {
        req.read_contents[base + i] = contents[i];
      }
    }
  } else {
    trace_.record(
        TraceEvent{sim_.now(), Action::kError, id, sub_index, sub_lpn, sub_pages, req.is_write});
    req.subs_error += 1;
  }
  maybe_complete(id);
}

void BlockQueue::maybe_complete(std::uint64_t id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  LiveRequest& req = it->second;
  if (req.subs_done + req.subs_error < req.subs_total) return;

  sim_.cancel(req.timeout_event);
  RequestOutcome out;
  out.request_id = id;
  out.status = req.subs_error > 0 ? IoStatus::kError : IoStatus::kOk;
  out.media_error = req.any_media_error;
  out.queued_at = req.queued_at;
  out.finished_at = sim_.now();
  out.read_contents = std::move(req.read_contents);
  if (out.status == IoStatus::kOk) {
    ++stats_.completed_ok;
    stats_.latency_us.add((out.finished_at - out.queued_at).to_us());
  } else {
    ++stats_.io_errors;
  }
  auto done = std::move(req.done);
  live_.erase(it);
  obs_outstanding_gauge();
  if (done) done(std::move(out));
}

void BlockQueue::fire_timeout(std::uint64_t id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  LiveRequest& req = it->second;
  trace_.record(TraceEvent{sim_.now(), Action::kTimeout, id, 0, req.lpn, req.pages, req.is_write});
  ++stats_.timeouts;

  RequestOutcome out;
  out.request_id = id;
  out.status = IoStatus::kTimeout;
  out.queued_at = req.queued_at;
  out.finished_at = sim_.now();
  auto done = std::move(req.done);
  live_.erase(it);
  obs_outstanding_gauge();
  if (done) done(std::move(out));
}

}  // namespace pofi::blk
