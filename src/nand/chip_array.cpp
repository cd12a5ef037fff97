#include "nand/chip_array.hpp"

#include <cassert>
#include <string>

namespace pofi::nand {

ChipArray::ChipArray(sim::Simulator& simulator, Config config) : config_(config) {
  assert(config_.channels >= 1);
  effective_geometry_ = flat_geometry(config_);
  chips_.reserve(config_.channels);
  for (std::uint32_t c = 0; c < config_.channels; ++c) {
    // Distinct RNG label per die: error draws must be independent across
    // channels even though every die shares one simulator.
    chips_.push_back(std::make_unique<NandChip>(simulator, config_.chip,
                                                "nand-die-" + std::to_string(c)));
  }
}

Ppn ChipArray::local_ppn(Ppn ppn) const {
  const BlockId gb = effective_geometry_.block_of(ppn);
  const std::uint32_t pib = effective_geometry_.page_in_block(ppn);
  return local_block(gb) * effective_geometry_.pages_per_block + pib;
}

void ChipArray::read(Ppn ppn, OpCallback cb) {
  chips_[channel_of_ppn(ppn)]->read(local_ppn(ppn), std::move(cb));
}

void ChipArray::program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb) {
  chips_[channel_of_ppn(ppn)]->program(local_ppn(ppn), content, oob, std::move(cb));
}

void ChipArray::erase(BlockId block, OpCallback cb) {
  chips_[channel_of_block(block)]->erase(local_block(block), std::move(cb));
}

void ChipArray::on_power_lost() {
  for (auto& c : chips_) c->on_power_lost();
}

void ChipArray::on_power_good() {
  for (auto& c : chips_) c->on_power_good();
}

bool ChipArray::powered() const { return chips_.front()->powered(); }

const Page* ChipArray::peek(Ppn ppn) const {
  return chips_[channel_of_ppn(ppn)]->peek(local_ppn(ppn));
}

PageFields ChipArray::page_fields(Ppn ppn) const {
  const std::uint32_t ppb = effective_geometry_.pages_per_block;
  const BlockId b = ppn / ppb;
  const auto pib = static_cast<std::uint32_t>(ppn - b * ppb);
  return chips_[b % config_.channels]->page_fields(b / config_.channels, pib);
}

std::optional<Ppn> ChipArray::first_unerased_page(BlockId b) const {
  const std::uint32_t pib = chips_[channel_of_block(b)]->first_unerased_page(local_block(b));
  if (pib == effective_geometry_.pages_per_block) return std::nullopt;
  return effective_geometry_.first_page(b) + pib;
}

OpResult ChipArray::read_now(Ppn ppn) {
  return chips_[channel_of_ppn(ppn)]->read_now(local_ppn(ppn));
}

std::uint32_t ChipArray::erase_count(BlockId b) const {
  return chips_[channel_of_block(b)]->erase_count(local_block(b));
}

bool ChipArray::is_bad(BlockId b) const {
  return chips_[channel_of_block(b)]->is_bad(local_block(b));
}

std::size_t ChipArray::touched_blocks() const {
  std::size_t n = 0;
  for (const auto& c : chips_) n += c->touched_blocks();
  return n;
}

ChipStats ChipArray::stats() const {
  ChipStats total;
  for (const auto& c : chips_) total += c->stats();
  return total;
}

}  // namespace pofi::nand
