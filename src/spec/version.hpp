// Build provenance: the pofi version string stamped (together with the spec
// content hash) into CSV and report artifacts.
#pragma once

namespace pofi::spec {

/// "pofi <semver>+<git short rev>" — the rev is read at build time and
/// carries "+dirty" when a tracked file differed from HEAD; it is
/// "unreleased" when the sources had no git metadata (or git was missing).
[[nodiscard]] const char* pofi_version();

}  // namespace pofi::spec
