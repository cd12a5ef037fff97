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
  return submit(ssd::Command::Op::kWrite, lpn, pages, std::move(contents), std::move(done));
}

std::uint64_t BlockQueue::submit_read(ftl::Lpn lpn, std::uint32_t pages, Completion done) {
  return submit(ssd::Command::Op::kRead, lpn, pages, {}, std::move(done));
}

std::uint64_t BlockQueue::submit_discard(ftl::Lpn lpn, std::uint32_t pages,
                                         Completion done) {
  return submit(ssd::Command::Op::kTrim, lpn, pages, {}, std::move(done));
}

std::uint64_t BlockQueue::submit_flush(Completion done) {
  return submit(ssd::Command::Op::kFlush, 0, 0, {}, std::move(done));
}

std::uint64_t BlockQueue::submit(ssd::Command::Op op, ftl::Lpn lpn, std::uint32_t pages,
                                 std::vector<std::uint64_t> contents, Completion done) {
  const std::uint64_t id = next_id_++;
  ++stats_.submitted;
  // TRIMs and FLUSHes count with the write path in traces.
  const bool is_write = op != ssd::Command::Op::kRead;

  LiveRequest req;
  req.id = id;
  req.is_write = is_write;
  req.lpn = lpn;
  req.pages = pages;
  req.queued_at = sim_.now();
  req.done = std::move(done);
  if (!is_write) req.read_contents.assign(pages, nand::kErasedContent);

  trace_.record(TraceEvent{sim_.now(), Action::kQueued, id, 0, lpn, pages, is_write});

  // Reads and writes split into sub-requests of at most
  // max_pages_per_subrequest; a TRIM or FLUSH goes down whole.
  const bool splits = op == ssd::Command::Op::kRead || op == ssd::Command::Op::kWrite;
  const std::uint32_t max_sub =
      splits ? std::max(1u, config_.max_pages_per_subrequest) : std::max(1u, pages);
  const std::uint32_t n_subs = splits ? (pages + max_sub - 1) / max_sub : 1;
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
    cmd.op = op;
    cmd.lpn = sub_lpn;
    cmd.pages = sub_pages;
    if (op == ssd::Command::Op::kWrite) {
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
