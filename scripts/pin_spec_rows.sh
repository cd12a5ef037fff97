#!/usr/bin/env bash
# Regenerate specs/expected/<spec>.rows, the pinned result rows of every
# committed spec that the SpecRows.* ctest entries compare against
# (tests/spec_rows.cmake holds the row format). A change that moves a row
# says which and why in CHANGES.md.
#
#   scripts/pin_spec_rows.sh              # uses build/examples/pofi_run
#   scripts/pin_spec_rows.sh build-asan   # another build tree
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
POFI_RUN="${BUILD}/examples/pofi_run"
[[ -x "${POFI_RUN}" ]] || { echo "no ${POFI_RUN}: build pofi_run first" >&2; exit 2; }

mkdir -p specs/expected
for spec in specs/*.json; do
  name="$(basename "${spec}" .json)"
  cmake -DPOFI_RUN="${POFI_RUN}" -DSPEC="${spec}" -DEXPECTED="specs/expected/${name}.rows" \
        -DWORK="${BUILD}/spec_rows/${name}" -DWRITE=ON -P tests/spec_rows.cmake
  echo "pinned specs/expected/${name}.rows"
done
