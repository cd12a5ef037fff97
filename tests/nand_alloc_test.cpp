// Zero-steady-state-allocation proof for the NAND page-access path.
//
// Global operator new/delete are replaced with counting versions (this test
// must therefore stay its own binary, like sim_alloc_test). After a warmup
// that materialises the working blocks, sizes their page lanes and the
// per-plane op rings, a steady-state program / read / erase / re-program
// cycle over the same blocks must perform exactly zero heap allocations:
// lanes recycle through the arena free list, payloads ride the u32 SoA
// lanes, completion callbacks ride InplaceFunction inline storage, and the
// event queue reuses its slot arena (PR 2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "nand/chip.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pofi::nand {
namespace {

NandChip::Config test_config() {
  NandChip::Config cfg;
  cfg.geometry.page_size_bytes = 4096;
  cfg.geometry.pages_per_block = 16;
  cfg.geometry.blocks_per_plane = 32;
  cfg.geometry.planes = 2;
  cfg.tech = CellTech::kMlc;
  cfg.endurance_pe_cycles = 1'000'000;  // no retirement in this test
  return cfg;
}

void cycle_blocks(sim::Simulator& sim, NandChip& chip, BlockId first, BlockId count) {
  const Geometry& g = chip.geometry();
  for (BlockId b = first; b < first + count; ++b) {
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      chip.program(g.first_page(b) + p, 1000 + p, Oob{p, p + 1},
                   [](OpResult r) { ASSERT_TRUE(r.ok()); });
    }
    sim.run_all();
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      chip.read(g.first_page(b) + p, [](OpResult) {});
    }
    sim.run_all();
    chip.erase(b, [](OpResult r) { ASSERT_TRUE(r.ok()); });
    sim.run_all();
  }
}

TEST(NandAllocFree, SteadyStatePageAccessDoesNotAllocate) {
  sim::Simulator sim;
  NandChip chip(sim, test_config());
  chip.on_power_good();

  // Warmup: touch the working set, allocate lanes and ring capacity, and
  // run one full erase cycle so the lane free list is primed.
  constexpr BlockId kBlocks = 16;
  cycle_blocks(sim, chip, 0, kBlocks);
  cycle_blocks(sim, chip, 0, kBlocks);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  cycle_blocks(sim, chip, 0, kBlocks);
  cycle_blocks(sim, chip, 0, kBlocks);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "program/read/erase steady state must not touch the heap";

  EXPECT_EQ(chip.stats().programs, 4 * kBlocks * 16u);
  EXPECT_EQ(chip.stats().erases, 4 * kBlocks);
  EXPECT_EQ(chip.touched_blocks(), kBlocks);
}

TEST(NandAllocFree, CountersActuallyCount) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto* leak_check = new int(7);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_GE(after - before, 1u);
  delete leak_check;
}

}  // namespace
}  // namespace pofi::nand
