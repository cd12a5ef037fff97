#!/usr/bin/env bash
# Mechanical gate for the repo: tier-1 build + full ctest, then the tests of
# the concurrent runner code under ThreadSanitizer, then the whole suite
# under Address+UB sanitizers.
#
#   scripts/check.sh          # tier-1 + TSan runner tests + ASan/UBSan suite
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
# default: round-trip, parser-mutation and codec-mutation fuzzing stay
# deterministic (fixed seeds), only the iteration count grows.
echo "==> spec fuzz soak (POFI_FUZZ_ITERS=${POFI_FUZZ_ITERS:-5000})"
POFI_FUZZ_ITERS="${POFI_FUZZ_ITERS:-5000}" ./build/tests/spec_fuzz_test

if [[ "${FAST}" == "1" ]]; then
  echo "==> fast mode: skipping the sanitizer stages"
  exit 0
fi

# Each sanitizer stage runs a preset from CMakePresets.json. TSan: the
# runner's worker pool, progress sinks and campaign rows are the only
# concurrent code in the tree; the `tsan` test preset selects the test
# binaries labelled `tsan` in tests/CMakeLists.txt — those plus what runs on
# their workers (event-kernel fuzz, obs registry, pooled-session fuzz,
# campaign specs, golden campaigns, torture explorer).
echo "==> TSan: configure + build + ctest --preset tsan (build-tsan/)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --preset tsan -j "${JOBS}"

# ASan+UBSan over the whole suite, as CI's asan job runs it.
echo "==> ASan+UBSan: configure + build + ctest, whole suite (build-asan/)"
cmake --preset asan >/dev/null
cmake --build build-asan -j "${JOBS}"
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "==> all checks passed"
