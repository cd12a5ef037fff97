#include "platform/test_platform.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::platform {

using psu::PowerCommand;
using workload::DataPacket;
using workload::OpType;
using workload::RequestSpec;

TestPlatform::TestPlatform(ssd::SsdConfig ssd_config, PlatformConfig platform_config,
                           std::uint64_t seed)
    : sim_(seed),
      ssd_config_(std::move(ssd_config)),
      config_(platform_config),
      rng_(sim_.fork_rng("platform")) {
  sim_.set_step_limit(config_.max_sim_events);
  sim_.set_cancel_token(config_.cancel);
  if (config_.metrics) {
    // Attach before any component constructs so every layer registers its
    // metrics.
    metrics_ = std::make_unique<obs::MetricRegistry>();
    sim_.set_metrics(metrics_.get());
  }
  psu_ = std::make_unique<psu::PowerSupply>(sim_, psu::make_discharge_model(config_.discharge),
                                            config_.psu);
  atx_ = std::make_unique<psu::AtxController>(*psu_);
  bridge_ = std::make_unique<psu::ArduinoBridge>(sim_, *atx_, config_.arduino);
  ssd_ = std::make_unique<ssd::Ssd>(sim_, ssd_config_);
  psu_->attach(*ssd_);
  queue_ = std::make_unique<blk::BlockQueue>(sim_, *ssd_, config_.block_queue);
  queue_->trace().set_enabled(config_.trace_enabled);
  analyzer_ = std::make_unique<Analyzer>(sim_, *queue_, shadow_);
  scheduler_ =
      std::make_unique<FaultScheduler>(sim_, *bridge_, *psu_, sim_.fork_rng("scheduler"));
}

TestPlatform::~TestPlatform() = default;

bool TestPlatform::compatible_with(const ssd::SsdConfig& drive,
                                   const PlatformConfig& platform_config) const {
  return ssd_config_ == drive && config_.discharge == platform_config.discharge &&
         config_.psu == platform_config.psu && config_.arduino == platform_config.arduino &&
         config_.block_queue == platform_config.block_queue &&
         config_.metrics == platform_config.metrics;
}

void TestPlatform::reset(const PlatformConfig& platform_config, std::uint64_t seed) {
  assert(compatible_with(ssd_config_, platform_config));
  config_ = platform_config;
  // Constructor order: simulator state first, then components top-down.
  sim_.reset(seed);
  sim_.set_step_limit(config_.max_sim_events);
  sim_.set_cancel_token(config_.cancel);
  if (metrics_) metrics_->reset_values();
  rng_ = sim_.fork_rng("platform");
  psu_->reset();
  atx_->reset();
  bridge_->reset();
  ssd_->reset();
  queue_->reset();
  queue_->trace().set_enabled(config_.trace_enabled);
  shadow_.reset();
  analyzer_->reset();
  scheduler_->reset(sim_.fork_rng("scheduler"));
  // generator_ adopts the next run()'s workload in place.
  io_active_ = false;
  ran_ = false;
  open_loop_mode_ = true;
  pace_iops_ = 5.0;
  next_packet_id_ = 1;
  requests_submitted_ = 0;
  cycle_requests_ = 0;
  cycle_budget_ = 0;
  write_acks_ = 0;
  reads_completed_ = 0;
  fault_index_ = 0;
}

void TestPlatform::snapshot(StateImage& out) const {
  assert(quiescent() && "snapshot requires a quiescent platform");
  sim_.snapshot(out.sim);
  psu_->snapshot(out.psu);
  atx_->snapshot(out.atx);
  bridge_->snapshot(out.bridge);
  ssd_->snapshot(out.ssd);
  queue_->snapshot(out.blk);
  shadow_.snapshot(out.shadow);
  analyzer_->snapshot(out.analyzer);
  scheduler_->snapshot(out.scheduler);
  out.platform_rng = rng_.state();
  out.has_metrics = metrics_ != nullptr;
  if (metrics_) metrics_->snapshot_values(out.metrics);
  out.io_active = io_active_;
  out.ran = ran_;
  out.open_loop_mode = open_loop_mode_;
  out.pace_iops = pace_iops_;
  out.next_packet_id = next_packet_id_;
  out.requests_submitted = requests_submitted_;
  out.cycle_requests = cycle_requests_;
  out.cycle_budget = cycle_budget_;
  out.write_acks = write_acks_;
  out.reads_completed = reads_completed_;
  out.fault_index = fault_index_;
}

void TestPlatform::restore(const StateImage& image, sim::TimerRearmer& rearm) {
  // Simulator first: clearing its queue guarantees no event from the old
  // lifetime fires into the restored stack (mirrors reset() ordering).
  sim_.restore(image.sim);
  sim_.set_step_limit(config_.max_sim_events);
  sim_.set_cancel_token(config_.cancel);
  if (metrics_) metrics_->restore_values(image.metrics);
  rng_.set_state(image.platform_rng);
  psu_->restore(image.psu);
  atx_->restore(image.atx);
  bridge_->restore(image.bridge);
  ssd_->restore(image.ssd, rearm);
  queue_->restore(image.blk);
  shadow_.restore(image.shadow);
  analyzer_->restore(image.analyzer);
  scheduler_->restore(image.scheduler);
  io_active_ = image.io_active;
  ran_ = image.ran;
  open_loop_mode_ = image.open_loop_mode;
  pace_iops_ = image.pace_iops;
  next_packet_id_ = image.next_packet_id;
  requests_submitted_ = image.requests_submitted;
  cycle_requests_ = image.cycle_requests;
  cycle_budget_ = image.cycle_budget;
  write_acks_ = image.write_acks;
  reads_completed_ = image.reads_completed;
  fault_index_ = image.fault_index;
}

// --------------------------------------------------------------- IO engine

void TestPlatform::start_io() {
  io_active_ = true;
  cycle_requests_ = 0;
  double rate = generator_->config().target_iops;
  if (rate <= 0.0) rate = pace_iops_;
  open_loop_mode_ = rate > 0.0;
  if (open_loop_mode_) {
    // Open loop: Poisson arrivals at the chosen rate.
    open_loop_step(1.0 / rate);
  } else {
    // Closed loop: `depth` independent request chains, device-limited.
    for (std::uint32_t i = 0; i < config_.closed_loop_depth; ++i) {
      sim_.after(sim::Duration::us(static_cast<std::int64_t>(i)), [this] { io_chain_step(); });
    }
  }
}

void TestPlatform::open_loop_step(double mean_gap_sec) {
  if (!io_active_) return;
  // The generator does not know about the fault schedule: it keeps issuing
  // even as the rail dies (that is the paper's IO-error channel). It stops
  // once it observes an error (handle_outcome clears io_active_).
  if (cycle_requests_ < cycle_budget_) {
    submit_one(generator_->next());
  }
  sim_.after(sim::Duration::sec_f(rng_.exponential(mean_gap_sec)),
             [this, mean_gap_sec] { open_loop_step(mean_gap_sec); });
}

void TestPlatform::stop_io() { io_active_ = false; }

void TestPlatform::io_chain_step() {
  if (!io_active_ || !ssd_->ready()) return;     // chain ends at device death
  if (cycle_requests_ >= cycle_budget_) return;  // per-cycle ceiling reached
  submit_one(generator_->next());
}

void TestPlatform::submit_one(RequestSpec spec) {
  ++requests_submitted_;
  ++cycle_requests_;

  DataPacket p;
  p.packet_id = next_packet_id_++;
  p.op = spec.op;
  p.address = spec.lpn;
  p.size_pages = spec.pages;
  p.queue_time = sim_.now();

  if (spec.op == OpType::kWrite) {
    p.page_tags = shadow_.allocate_tags(spec.pages);
    p.initial_page_tags.reserve(spec.pages);
    for (std::uint32_t i = 0; i < spec.pages; ++i) {
      p.initial_page_tags.push_back(shadow_.expected(spec.lpn + i));
    }
    auto tags_copy = p.page_tags;
    queue_->submit_write(spec.lpn, std::move(tags_copy),
                         [this, p = std::move(p)](blk::RequestOutcome out) mutable {
                           handle_outcome(std::move(p), std::move(out));
                         });
  } else {
    queue_->submit_read(spec.lpn, spec.pages,
                        [this, p = std::move(p)](blk::RequestOutcome out) mutable {
                          handle_outcome(std::move(p), std::move(out));
                        });
  }
}

void TestPlatform::handle_outcome(DataPacket packet, blk::RequestOutcome out) {
  const bool closed_loop = !open_loop_mode_;
  if (out.status == blk::IoStatus::kOk) {
    packet.complete_time = out.finished_at;
    packet.modified = true;
    if (packet.op == OpType::kWrite) {
      ++write_acks_;
      shadow_.commit_write(packet.address, packet.page_tags);
      analyzer_->note_acked_write(std::move(packet));
    } else {
      ++reads_completed_;
      analyzer_->note_read_result(packet, out.read_contents);
    }
    if (closed_loop) {
      sim_.after(config_.think_time, [this] { io_chain_step(); });
    }
  } else {
    packet.not_issued = true;
    analyzer_->note_io_error(packet);
    if (packet.op == OpType::kWrite) {
      shadow_.mark_indeterminate(packet.address, packet.page_tags);
    }
    // First observed error: the generator realises the device is gone and
    // stops issuing (closed-loop chains end by simply not respawning).
    io_active_ = false;
  }
}

// --------------------------------------------------------------- campaigns

ExperimentResult TestPlatform::run(const ExperimentSpec& spec) {
  assert(!ran_ && "a TestPlatform runs exactly one campaign");
  ran_ = true;
  pace_iops_ = spec.pace_iops;
  if (generator_) {
    generator_->reset(spec.workload, sim_.fork_rng("workload"));
  } else {
    generator_ = std::make_unique<workload::WorkloadGenerator>(spec.workload,
                                                               sim_.fork_rng("workload"));
  }

  ExperimentResult result;
  result.name = spec.name;
  result.requested_iops = spec.workload.target_iops;

  // Initial power-up and mount.
  scheduler_->command_on();
  sim_.run_while([&] { return !ssd_->ready(); });

  if (spec.mode == FaultMode::kRandomDuringWorkload) {
    run_random_fault_campaign(spec, result);
  } else {
    run_fixed_delay_campaign(spec, result);
  }

  result.requests_submitted = requests_submitted_;
  result.write_acks = write_acks_;
  result.reads_completed = reads_completed_;
  const AnalyzerCounters& c = analyzer_->counters();
  result.data_failures = c.data_failures;
  result.fwa_failures = c.fwa_failures;
  result.io_errors = c.io_errors;
  result.verified_ok = c.verified_ok;
  result.read_mismatches = c.read_mismatches;
  result.failures = analyzer_->failures();
  result.cache_dirty_lost = ssd_->cache().stats().dirty_lost_on_power_failure;
  result.interrupted_programs = ssd_->chip().stats().interrupted_programs;
  result.paired_page_upsets = ssd_->chip().stats().paired_page_upsets;
  result.map_updates_reverted = ssd_->ftl().stats().map_updates_reverted;
  result.uncorrectable_reads = ssd_->chip().stats().uncorrectable_reads;
  result.sim_seconds = sim_.now().to_sec();
  result.mean_latency_us = queue_->stats().latency_us.mean();
  result.max_latency_us = queue_->stats().latency_us.max();
  if (result.active_seconds > 0.0) {
    result.responded_iops =
        static_cast<double>(write_acks_ + reads_completed_) / result.active_seconds;
  }
  if (metrics_) result.metrics = metrics_->snapshot();
  return result;
}

void TestPlatform::power_cycle_and_verify(ExperimentResult& result,
                                          sim::TimePoint fault_command_time) {
  // Ride the discharge curve all the way down.
  sim_.run_while([&] { return !scheduler_->rail_fully_down(); });
  stop_io();
  sim_.run_for(config_.post_fault_dwell);

  scheduler_->command_on();
  sim_.run_while([&] { return !ssd_->ready(); });

  bool verified = false;
  analyzer_->verify_pending(fault_command_time, fault_index_, [&verified] { verified = true; });
  sim_.run_while([&] { return !verified; });
  ++result.faults_injected;
  if (config_.trace_enabled) queue_->trace().clear();
}

void TestPlatform::run_random_fault_campaign(const ExperimentSpec& spec,
                                             ExperimentResult& result) {
  const std::uint64_t budget_per_cycle =
      std::max<std::uint64_t>(1, spec.total_requests / std::max(1u, spec.faults));
  for (fault_index_ = 0; fault_index_ < spec.faults; ++fault_index_) {
    cycle_budget_ = budget_per_cycle * 2;  // hard ceiling per cycle
    const sim::TimePoint io_start = sim_.now();
    start_io();
    sim_.run_while([&] { return cycle_requests_ < budget_per_cycle && io_active_; });

    // Scheduler: the fault lands a random beat after the budget is reached.
    scheduler_->arm_fault(spec.fault_jitter);
    sim_.run_while([&] { return !scheduler_->fault_in_progress(); });
    const sim::TimePoint fault_time = scheduler_->last_fault_at();
    result.active_seconds += (fault_time - io_start).to_sec();

    power_cycle_and_verify(result, fault_time);
  }
}

void TestPlatform::run_fixed_delay_campaign(const ExperimentSpec& spec,
                                            ExperimentResult& result) {
  cycle_budget_ = ~0ULL;
  for (fault_index_ = 0; fault_index_ < spec.faults; ++fault_index_) {
    // One write request, forced regardless of the workload's read fraction.
    RequestSpec rs = generator_->next();
    rs.op = OpType::kWrite;
    io_active_ = true;
    const std::uint64_t acks_before = write_acks_;
    submit_one(rs);
    sim_.run_while([&] { return write_acks_ == acks_before; });
    if (write_acks_ == acks_before) break;  // write never ACKed; give up

    // Let exactly post_ack_delay elapse after the ACK, then cut power.
    sim_.run_for(spec.post_ack_delay);
    scheduler_->command_off();
    sim_.run_while([&] { return !scheduler_->fault_in_progress(); });
    const sim::TimePoint fault_time = scheduler_->last_fault_at();
    result.active_seconds += spec.post_ack_delay.to_sec();

    power_cycle_and_verify(result, fault_time);
  }
}

}  // namespace pofi::platform
