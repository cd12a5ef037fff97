// The control chain of the paper's hardware part (Fig. 3):
//
//   Host software --USB serial--> Arduino UNO (ATmega328, pin 13)
//     --wire--> ATX controller pin 16 (PS_ON, active low) --> PSU rail.
//
// We model each hop with its latency so that a scheduled fault lands on the
// rail a realistic ~1 ms after the software issues the Off command, and so
// a spec can zero these latencies out (platform.arduino).
#pragma once

#include <cstdint>

#include "psu/power_supply.hpp"
#include "sim/simulator.hpp"

namespace pofi::psu {

/// PS_ON pin semantics: the ATX controller keeps the rail up while pin 16 is
/// pulled low; driving it high (+5 V) cuts the output.
class AtxController {
 public:
  explicit AtxController(PowerSupply& supply) : supply_(supply) {}

  /// Drive pin 16. `high` == +5 V == rail off (active low).
  void set_ps_on_pin(bool high) {
    pin16_high_ = high;
    if (high) {
      supply_.power_off();
    } else {
      supply_.power_on();
    }
  }

  [[nodiscard]] bool pin16_high() const { return pin16_high_; }

  /// Session reset: pin back to its power-up (rail off) level.
  void reset() { pin16_high_ = true; }

  struct StateImage {
    bool pin16_high = true;
  };
  void snapshot(StateImage& out) const { out.pin16_high = pin16_high_; }
  void restore(const StateImage& image) { pin16_high_ = image.pin16_high; }

 private:
  PowerSupply& supply_;
  bool pin16_high_ = true;  // boards power up with the rail off
};

/// One-byte On/Off command protocol over the Arduino's USB serial link.
enum class PowerCommand : std::uint8_t { kOn = '1', kOff = '0' };

/// Arduino UNO bridge: receives commands from the host with serial +
/// firmware-loop latency and drives the ATX pin.
class ArduinoBridge {
 public:
  struct Params {
    /// 115200 baud, 1 command byte + framing, plus USB-CDC and loop() slack.
    sim::Duration command_latency = sim::Duration::us(1200);
    /// Jitter half-width applied uniformly around command_latency.
    sim::Duration jitter = sim::Duration::us(200);

    bool operator==(const Params&) const = default;
  };

  ArduinoBridge(sim::Simulator& simulator, AtxController& atx, Params params)
      : sim_(simulator), atx_(atx), params_(params), rng_(simulator.fork_rng("arduino")) {}
  // Out-of-line: GCC 12 in-class delegation NSDMI bug.
  ArduinoBridge(sim::Simulator& simulator, AtxController& atx);

  /// Host-side API: queue a command; it reaches the pin after the link delay.
  void send(PowerCommand cmd) {
    sim::Duration delay = params_.command_latency;
    if (!params_.jitter.is_zero()) {
      const auto j = params_.jitter.count_ns();
      delay += sim::Duration::ns(rng_.range(-j, j));
    }
    if (delay.is_negative()) delay = sim::Duration::zero();
    ++commands_sent_;
    sim_.after(delay, [this, cmd] {
      // Firmware maps '0' -> pin13 high -> pin16 high -> rail off.
      atx_.set_ps_on_pin(cmd == PowerCommand::kOff);
    });
  }

  [[nodiscard]] std::uint64_t commands_sent() const { return commands_sent_; }

  /// Session reset: counter rewinds, RNG stream re-forked from the
  /// (reseeded) master under the construction-time label.
  void reset() {
    commands_sent_ = 0;
    rng_ = sim_.fork_rng("arduino");
  }

  /// In-flight link commands are events, absent at quiescence; only the
  /// jitter RNG position and the counter are state.
  struct StateImage {
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t commands_sent = 0;
  };
  void snapshot(StateImage& out) const {
    out.rng_state = rng_.state();
    out.commands_sent = commands_sent_;
  }
  void restore(const StateImage& image) {
    rng_.set_state(image.rng_state);
    commands_sent_ = image.commands_sent;
  }

 private:
  sim::Simulator& sim_;
  AtxController& atx_;
  Params params_;
  sim::Rng rng_;
  std::uint64_t commands_sent_ = 0;
};

}  // namespace pofi::psu
