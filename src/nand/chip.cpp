#include "nand/chip.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::nand {

NandChip::NandChip(sim::Simulator& simulator, Config config, std::string_view rng_label)
    : sim_(simulator),
      config_(config),
      timing_(timing_for(config.tech)),
      errors_(error_model_for(config.tech)),
      ecc_(make_ecc(config.ecc)),
      rng_label_(rng_label),
      rng_(simulator.fork_rng(rng_label)),
      planes_(config.geometry.planes),
      arena_(config.geometry, config.initial_pe_cycles) {
  // Every die registers its own fields; the registry sums them by name.
  if (auto* m = sim_.metrics()) {
    m->counter_source("nand.ispp.started", &stats_.ispp_started);
    m->counter_source("nand.ispp.interrupted", &stats_.interrupted_programs);
    m->counter_source("nand.erase.interrupted", &stats_.interrupted_erases);
    m->counter_source("nand.read.bit_errors", &stats_.read_bit_errors);
    m->counter_source("nand.ecc.corrected", &stats_.ecc_corrected_bits);
    m->counter_source("nand.ecc.uncorrectable", &stats_.uncorrectable_reads);
    m->counter_source("nand.paired_page.upsets", &stats_.paired_page_upsets);
    m->counter_source("nand.block.retired", &stats_.blocks_retired);
  }
}

void NandChip::reset() {
  powered_ = false;
  for (Plane& p : planes_) {
    p.ops.clear();
    p.busy = false;
  }
  arena_.reset();
  peek_scratch_ = Page{};
  stats_ = ChipStats{};
  rng_ = sim_.fork_rng(rng_label_);
}

double NandChip::wear_severity(BlockArena::Slot slot) const {
  // Worn cells have wider threshold-voltage distributions: the same
  // interruption or paired-page upset lands more raw errors near end of
  // life. Superlinear in wear (distribution tails fatten late in life),
  // quadrupling the damage at the endurance limit.
  const double ratio = static_cast<double>(arena_.erase_count(slot)) /
                       std::max(1u, config_.endurance_pe_cycles);
  return 1.0 + 3.0 * ratio * ratio;
}

const Page* NandChip::peek(Ppn ppn) const {
  const BlockArena::Slot slot = arena_.find(config_.geometry.block_of(ppn));
  if (slot == BlockArena::kNoSlot) return nullptr;
  peek_scratch_ = arena_.snapshot(slot, config_.geometry.page_in_block(ppn));
  return &peek_scratch_;
}

std::uint32_t NandChip::erase_count(BlockId b) const {
  const BlockArena::Slot slot = arena_.find(b);
  return slot == BlockArena::kNoSlot ? 0 : arena_.erase_count(slot);
}

bool NandChip::is_bad(BlockId b) const {
  const BlockArena::Slot slot = arena_.find(b);
  return slot != BlockArena::kNoSlot && arena_.bad(slot);
}

// ------------------------------------------------------------- submission

void NandChip::read(Ppn ppn, OpCallback cb) {
  submit(config_.geometry.plane_of(ppn), InFlight::Kind::kRead, ppn,
         config_.geometry.block_of(ppn), timing_.read_page, 0, Oob{}, std::move(cb));
}

void NandChip::program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb) {
  if (powered_) ++stats_.ispp_started;
  const PageRole role = page_role(config_.tech, config_.geometry.page_in_block(ppn));
  submit(config_.geometry.plane_of(ppn), InFlight::Kind::kProgram, ppn,
         config_.geometry.block_of(ppn), timing_.program_time(role), content, oob,
         std::move(cb));
}

void NandChip::erase(BlockId block, OpCallback cb) {
  submit(static_cast<std::uint32_t>(block % config_.geometry.planes), InFlight::Kind::kErase,
         config_.geometry.first_page(block), block, timing_.erase_block, 0, Oob{},
         std::move(cb));
}

void NandChip::submit(std::uint32_t plane_idx, InFlight::Kind kind, Ppn ppn, BlockId block,
                      sim::Duration duration, std::uint64_t content, Oob oob, OpCallback&& cb) {
  if (!powered_) {
    cb(OpResult{OpResult::Status::kPowerLost});
    return;
  }
  Plane& plane = planes_[plane_idx];
  InFlight& op = plane.ops.emplace_back();
  op.kind = kind;
  op.ppn = ppn;
  op.block = block;
  op.content = content;
  op.oob = oob;
  op.duration = duration;
  op.cb = std::move(cb);
  if (!plane.busy) start_next(plane_idx);
}

void NandChip::start_next(std::uint32_t plane_idx) {
  Plane& plane = planes_[plane_idx];
  if (plane.busy || plane.ops.empty() || !powered_) return;
  plane.busy = true;
  InFlight& op = plane.ops.front();
  op.start = sim_.now();
  op.completion = sim_.after(op.duration, [this, plane_idx] { complete(plane_idx); });
}

void NandChip::complete(std::uint32_t plane_idx) {
  Plane& plane = planes_[plane_idx];
  assert(plane.busy);
  InFlight& op = plane.ops.front();
  OpResult result;
  switch (op.kind) {
    case InFlight::Kind::kRead:
      ++stats_.reads;
      result = read_through_ecc(op.ppn);
      break;
    case InFlight::Kind::kProgram: result = finish_program(op); break;
    case InFlight::Kind::kErase: result = finish_erase(op); break;
  }
  // The plane is idle while the callback runs, so an op the callback queues
  // here starts at once, ahead of anything the callback schedules next.
  OpCallback cb = std::move(op.cb);
  plane.ops.pop_front();
  plane.busy = false;
  if (cb) cb(result);
  start_next(plane_idx);
}

// -------------------------------------------------------------- completion

std::uint64_t NandChip::raw_errors_for(BlockArena::Slot slot, std::uint32_t pib) {
  const double bits = static_cast<double>(config_.geometry.page_bits());
  const bool partially_erased = arena_.partially_erased(slot);
  double ber = 0.0;
  switch (arena_.status(slot, pib)) {
    case PageStatus::kErased:
      // A clean erased page has no errors to read; but inside a partially-
      // erased block even "erased" cells sit at unstable thresholds.
      if (!partially_erased) return arena_.upset_errors(slot, pib);
      break;  // fall through to the partially_erased bump below
    case PageStatus::kValid:
      ber = errors_.base_ber + errors_.ber_per_pe_cycle * arena_.erase_count(slot) +
            errors_.read_disturb_ber * arena_.reads_since_erase(slot) +
            errors_.program_disturb_ber * arena_.programs_since_erase(slot);
      break;
    case PageStatus::kPartial: {
      const double incomplete = 1.0 - static_cast<double>(arena_.progress(slot, pib));
      ber = 0.5 * std::pow(incomplete, errors_.interrupt_shape) * wear_severity(slot) +
            errors_.base_ber;
      break;
    }
    case PageStatus::kCorrupt:
      // Undefined cell states: a quarter of the bits read wrong.
      return static_cast<std::uint64_t>(bits / 4.0) + arena_.upset_errors(slot, pib);
  }
  if (partially_erased) ber += 0.05;  // unstable threshold voltages
  const double lambda = ber * bits;
  return rng_.poisson(lambda) + arena_.upset_errors(slot, pib);
}

OpResult NandChip::read_through_ecc(Ppn ppn) {
  const BlockArena::Slot slot = arena_.touch(config_.geometry.block_of(ppn));
  const std::uint32_t pib = config_.geometry.page_in_block(ppn);
  arena_.bump_reads_since_erase(slot);

  OpResult result;
  result.raw_errors = raw_errors_for(slot, pib);
  const DecodeOutcome out = ecc_->decode(config_.geometry.page_bits(), result.raw_errors, rng_);
  result.soft_retries = out.soft_retries;
  const PageFields page = arena_.fields(slot, pib);
  if (out.correctable) {
    result.status = OpResult::Status::kOk;
    result.content = page.content;
    // The spare area is covered by the same codewords as the data: it reads
    // back only when they decode, and an erased page has none.
    if (page.status != PageStatus::kErased) result.oob = page.oob;
  } else {
    result.status = OpResult::Status::kUncorrectable;
    // Deterministic garbage distinct from any allocated tag.
    result.content = page.content ^ (0x9e3779b97f4a7c15ULL * (result.raw_errors | 1ULL));
    ++stats_.uncorrectable_reads;
  }
  stats_.read_bit_errors += result.raw_errors;
  if (out.correctable) stats_.ecc_corrected_bits += result.raw_errors;
  return result;
}

OpResult NandChip::read_now(Ppn ppn) {
  ++stats_.reads;
  return read_through_ecc(ppn);
}

OpResult NandChip::finish_program(const InFlight& op) {
  const BlockArena::Slot slot = arena_.touch(op.block);
  const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
  if (arena_.bad(slot)) return OpResult{OpResult::Status::kBadBlock};
  if (config_.enforce_program_order && pib != arena_.next_program_page(slot)) {
    ++stats_.order_violations;
    return OpResult{OpResult::Status::kOrderViolation};
  }
  arena_.set_programmed(slot, pib, op.content, op.oob);
  if (arena_.has_upsets(slot)) arena_.set_upset_errors(slot, pib, 0);
  arena_.bump_programs_since_erase(slot);
  arena_.set_next_program_page(slot, pib + 1);
  ++stats_.programs;
  return OpResult{OpResult::Status::kOk};
}

OpResult NandChip::finish_erase(const InFlight& op) {
  const BlockArena::Slot slot = arena_.touch(op.block);
  if (arena_.erase_count(slot) >= config_.endurance_pe_cycles) {
    arena_.set_bad(slot);
    ++stats_.blocks_retired;
    return OpResult{OpResult::Status::kBadBlock};
  }
  arena_.erase_block(slot);
  arena_.set_erase_count(slot, arena_.erase_count(slot) + 1);
  ++stats_.erases;
  return OpResult{OpResult::Status::kOk};
}

// -------------------------------------------------------------- power loss

void NandChip::on_power_lost() {
  if (!powered_) return;
  powered_ = false;
  for (auto& plane : planes_) {
    stats_.dropped_queued_ops += plane.ops.size() - (plane.busy ? 1 : 0);
    if (plane.busy) {
      const InFlight& op = plane.ops.front();
      sim_.cancel(op.completion);
      switch (op.kind) {
        case InFlight::Kind::kRead:
          break;  // reads leave no trace on the array
        case InFlight::Kind::kProgram:
          interrupt_program(op);
          break;
        case InFlight::Kind::kErase:
          interrupt_erase(op);
          break;
      }
    }
    // No callbacks: the controller that issued these just lost power too.
    plane.ops.clear();
    plane.busy = false;
  }
}

void NandChip::on_power_good() { powered_ = true; }

void NandChip::interrupt_program(const InFlight& op) {
  ++stats_.interrupted_programs;
  const BlockArena::Slot slot = arena_.touch(op.block);
  const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
  const PageRole role = page_role(config_.tech, pib);
  const std::uint32_t steps = timing_.ispp_steps(role);

  const double frac = std::clamp(
      (sim_.now() - op.start).to_sec() / std::max(1e-12, op.duration.to_sec()), 0.0, 1.0);
  // Interruption lands on an ISPP step boundary: completed pulses stick.
  const double progress =
      std::floor(frac * static_cast<double>(steps)) / static_cast<double>(steps);

  if (progress >= 1.0) {
    // All pulses and the final verify finished; effectively a completed
    // program whose ACK never made it out of the die.
    arena_.set_programmed(slot, pib, op.content, op.oob);
    arena_.bump_programs_since_erase(slot);
    arena_.set_next_program_page(slot, pib + 1);
    return;
  }
  arena_.set_partial(slot, pib, static_cast<float>(progress), op.content, op.oob);
  arena_.bump_programs_since_erase(slot);
  arena_.set_next_program_page(slot, pib + 1);  // the cursor burned this page either way

  // Interrupting a later pass on a shared wordline shifts charge under the
  // partners that were already programmed and ACKed (the paper's corruption
  // of previously-written data, present even with the DRAM cache off).
  if (role != PageRole::kLower) {
    apply_paired_page_damage(op.block, pib, 1.0 - progress);
  }
}

void NandChip::apply_paired_page_damage(BlockId block_id, std::uint32_t page_in_block,
                                        double severity) {
  if (errors_.paired_page_upset_ber <= 0.0) return;
  const BlockArena::Slot slot = arena_.touch(block_id);
  const std::uint32_t base = wordline_base(config_.tech, page_in_block);
  const double bits = static_cast<double>(config_.geometry.page_bits());
  const std::uint32_t pages_per_block = config_.geometry.pages_per_block;
  for (std::uint32_t p = base; p < page_in_block && p < pages_per_block; ++p) {
    if (arena_.status(slot, p) != PageStatus::kValid) continue;
    const double lambda =
        errors_.paired_page_upset_ber * severity * wear_severity(slot) * bits;
    const std::uint64_t upset = rng_.poisson(lambda);
    if (upset == 0) continue;
    const std::uint32_t current = arena_.upset_errors(slot, p);
    arena_.set_upset_errors(
        slot, p,
        current + static_cast<std::uint32_t>(std::min<std::uint64_t>(
                      upset, std::numeric_limits<std::uint32_t>::max() - current)));
    ++stats_.paired_page_upsets;
  }
}

void NandChip::interrupt_erase(const InFlight& op) {
  ++stats_.interrupted_erases;
  const BlockArena::Slot slot = arena_.touch(op.block);
  const double frac = std::clamp(
      (sim_.now() - op.start).to_sec() / std::max(1e-12, op.duration.to_sec()), 0.0, 1.0);
  if (frac >= 1.0) {
    // Completed under dying power; treat as a normal erase.
    arena_.erase_block(slot);
    arena_.set_erase_count(slot, arena_.erase_count(slot) + 1);
    return;
  }
  // Cells are somewhere between their old states and erased: every page that
  // held data is now undefined, and the whole block reads unstably until a
  // clean erase completes.
  for (std::uint32_t p = 0; p < config_.geometry.pages_per_block; ++p) {
    const PageStatus st = arena_.status(slot, p);
    if (st == PageStatus::kValid || st == PageStatus::kPartial) {
      arena_.corrupt_page(slot, p);
    }
  }
  arena_.set_partially_erased(slot);
}

}  // namespace pofi::nand
