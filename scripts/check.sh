#!/usr/bin/env bash
# Mechanical gate for the repo: tier-1 build + full ctest, then a
# ThreadSanitizer build of the concurrent runner code and its tests, then a
# UBSan build of the resilience layer (retry/checkpoint/resume) and the NAND
# arena (bit-packing/narrowing), the L2P map, the write cache and the event
# queue with their tests.
#
#   scripts/check.sh          # tier-1 + TSan runner tests + UBSan resilience tests
#   scripts/check.sh --fast   # tier-1 only
#   JOBS=4 scripts/check.sh   # override parallelism
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> tier-1: configure + build + ctest (build/, -j${JOBS})"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

# Longer randomized soak of the spec JSON layer than the 200-iteration ctest
# default: round-trip and mutation fuzzing stay deterministic (fixed seeds),
# only the iteration count grows.
echo "==> spec fuzz soak (POFI_FUZZ_ITERS=${POFI_FUZZ_ITERS:-5000})"
POFI_FUZZ_ITERS="${POFI_FUZZ_ITERS:-5000}" ./build/tests/spec_fuzz_test

if [[ "${FAST}" == "1" ]]; then
  echo "==> fast mode: skipping TSan stage"
  exit 0
fi

# The runner's worker pool, progress sinks, and suite facade are the only
# concurrent code in the tree; build just their tests under TSan so data
# races are caught mechanically without a full instrumented rebuild. The
# event-kernel fuzz rides along: the kernel itself is single-threaded, but
# campaigns running on TSan-instrumented workers execute this exact code, so
# the fuzz under TSan both exercises the instrumented kernel at depth and
# documents the single-thread-per-queue contract.
echo "==> TSan: configure + build runner + event-kernel + obs + session tests (build-tsan/, -DPOFI_SANITIZE=thread)"
cmake -B build-tsan -S . -DPOFI_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" --target runner_test runner_resilience_test spec_campaign_test sim_property_test obs_concurrency_test session_fuzz_test torture_explorer_test

echo "==> TSan: ctest (runner + resilience + campaign rows + event-kernel fuzz + obs registry + session fuzz)"
# SessionFuzz rides the TSan stage because pooled sessions live one per
# worker thread: the differential fuzz on instrumented workers proves the
# slot handoff and the acquire() counters are race-free.
# The explorer's snapshot-cadence sweep runs here whole: its interval=1
# pilot captures the device at every boundary, and a capture copies only the
# L2P translation pages the workload touched, not an array sized by the
# drive's LPN space.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
        -R 'CampaignRunner|RunnerDeterminism|RunnerResilience|JsonlProgressSink|CampaignRows|EventQueueFuzz|EventQueueClear|ObsConcurrency|SessionFuzz|TortureExplorer'

# The resilience layer leans on exactly the constructs UBSan polices: integer
# backoff arithmetic, enum round-trips from untrusted JSONL, and strtoull
# parsing of checkpoint hashes — and the NAND arena adds 2-bit status packing,
# u32 narrowing with in-band sentinels, and slab index arithmetic, all prime
# shift/overflow territory. The L2P map's translation-page directory narrows
# chunk indexes to u32 beside an in-band kNoChunk sentinel, and the write
# cache's line pool does the same with u32 line indexes beside kNoLine, plus
# masked ring and probe arithmetic. Build the retry/checkpoint/resume tests
# plus the arena unit tests, the arena-vs-legacy differential fuzz, the
# mapping-table tests and the cache tests (with their map-model
# differential) under -fsanitize=undefined and run them with the golden
# resume gate. The event queue's heap keeps a u32 position per slot that
# doubles as the free-list link beside a kNil sentinel, so its unit tests,
# its reference-model fuzz and its zero-alloc proofs run here too. The shadow
# store's open-addressing tables hash with a wrapping multiply and a shift by
# 64 - log2(slots) beside an in-band all-ones empty key, so its unit tests
# and its map-model differential join them.
echo "==> UBSan: configure + build resilience + NAND arena + L2P map + write cache + session + event queue + shadow store tests (build-ubsan/, -DPOFI_SANITIZE=undefined)"
cmake -B build-ubsan -S . -DPOFI_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "${JOBS}" --target runner_resilience_test spec_checkpoint_test determinism_golden_test obs_metrics_test obs_attribution_test nand_block_arena_test nand_chip_fuzz_test nand_alloc_test ftl_mapping_test ssd_cache_test session_fuzz_test session_alloc_test snapshot_alloc_test torture_auditor_test torture_explorer_test sim_event_queue_test sim_property_test sim_alloc_test platform_shadow_test

echo "==> UBSan: ctest (retry + checkpoint + resume determinism + obs codec + NAND arena + L2P map + write cache + session reset + event queue + shadow store)"
# The session reset path is downcast + reseed + snapshot-restore arithmetic
# — dynamic_cast recovery in acquire(), RNG re-fork label hashing, heap
# container restores — so the differential fuzz and the zero-alloc reset
# proof run instrumented too. The device-state snapshot protocol rides the
# same stage: its zero-alloc proof, the explorer's snapshot sweeps checked
# against an in-test full replay of every point (TortureExplorer) and the
# restore-identity golden (DeterminismGolden).
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}" \
        -R 'RunnerResilience|CampaignStatusTaxonomy|JsonlProgressSink|Checkpoint|DeterminismGolden|ObsMetrics|ObsTrace|ObsAttribution|BlockArena|NandChipFuzz|NandChipTouchedBlocks|NandAllocFree|MappingTable|WriteCache|SessionFuzz|SessionAlloc|SnapshotAlloc|TortureAuditor|TortureExplorer|EventQueue|AllocFree|ShadowStore'

echo "==> all checks passed"
