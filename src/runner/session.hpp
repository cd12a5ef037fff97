// Pooled per-worker session state for the campaign runner.
//
// The runner itself stays generic (and free of TestPlatform dependencies):
// a session is an opaque polymorphic box that a worker thread owns for its
// lifetime and threads through every campaign it executes. What lives inside
// — typically a full reset-in-place device stack (runner::ExperimentSession)
// — is the campaign closure's business, recovered via dynamic_cast.
//
// Contract:
//   * One slot per worker thread; never shared, never locked.
//   * The slot starts empty. A campaign may install, replace or drop the
//     session; whatever it leaves behind is handed to the worker's next
//     campaign verbatim.
//   * A campaign that throws poisons the session (it may have died
//     mid-reset): the worker drops the slot, so its next campaign rebuilds
//     from nothing and reproduces a fresh-platform run exactly.
//   * Results must never depend on what the slot held on entry — reuse is a
//     pure performance optimisation, bit-indistinguishable from a rebuild.
#pragma once

#include <memory>

namespace pofi::runner {

/// Opaque base for pooled worker state. Concrete sessions add the real
/// payload and are recovered by the campaign closure via dynamic_cast.
struct SessionBase {
  SessionBase() = default;
  SessionBase(const SessionBase&) = delete;
  SessionBase& operator=(const SessionBase&) = delete;
  virtual ~SessionBase() = default;
};

/// One worker's session box. Empty until a campaign installs something.
using SessionSlot = std::unique_ptr<SessionBase>;

}  // namespace pofi::runner
