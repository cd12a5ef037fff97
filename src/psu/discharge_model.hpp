// Discharge-curve models for the PSU output rail after PS_ON is deasserted.
//
// The paper's key realism claim (Fig. 4): when the ATX supply is commanded
// off, its bulk capacitors discharge over hundreds of milliseconds — ~900 ms
// to reach 0 V with one SSD attached, ~1400 ms unloaded — and the SSD only
// becomes unavailable once the rail crosses 4.5 V, ~40 ms in. Prior work
// (Zheng FAST'13, Tseng DAC'11) used power transistors that cut the rail in
// microseconds. We model both so ablation A1
// (specs/ablation_cutoff_model.json) can compare them.
#pragma once

#include <memory>
#include <string>

#include "sim/enum_names.hpp"
#include "sim/time.hpp"

namespace pofi::psu {

/// Strategy interface: rail voltage as a function of time since cutoff, for a
/// given load current. Implementations must be monotonically non-increasing
/// in `elapsed` and provide the analytic inverse used to schedule
/// threshold-crossing events exactly (no polling).
class DischargeModel {
 public:
  virtual ~DischargeModel() = default;

  /// Rail voltage `elapsed` after cutoff with `load_amps` of DC load.
  [[nodiscard]] virtual double voltage(sim::Duration elapsed, double load_amps) const = 0;

  /// First time at which voltage() <= `volts`. Duration::max() if never.
  [[nodiscard]] virtual sim::Duration time_to_voltage(double volts, double load_amps) const = 0;

  /// Total time until the rail is effectively at 0 V (<= 0.05 V).
  [[nodiscard]] virtual sim::Duration full_discharge_time(double load_amps) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Power-law curve V(t) = V0 * (1 - (t/T)^p), t in [0, T(load)].
///
/// Calibrated to the paper's measurements: with one SSD (≈0.5 A) the rail
/// crosses 4.5 V at ≈40 ms and reaches 0 V at ≈900 ms; unloaded discharge
/// takes ≈1400 ms. T scales with load as T = T_unloaded / (1 + k * I).
class PowerLawDischarge final : public DischargeModel {
 public:
  struct Params {
    double v0 = 5.0;                                  ///< nominal rail voltage
    sim::Duration unloaded_total = sim::Duration::ms(1400);
    sim::Duration loaded_total = sim::Duration::ms(900);   ///< with reference load
    double reference_load_amps = 0.5;                 ///< one SATA SSD
    sim::Duration loaded_threshold_time = sim::Duration::ms(40);  ///< 4.5 V crossing
    double threshold_volts = 4.5;
  };

  explicit PowerLawDischarge(const Params& p);
  PowerLawDischarge();  // out-of-line: GCC 12 in-class delegation NSDMI bug

  [[nodiscard]] double voltage(sim::Duration elapsed, double load_amps) const override;
  [[nodiscard]] sim::Duration time_to_voltage(double volts, double load_amps) const override;
  [[nodiscard]] sim::Duration full_discharge_time(double load_amps) const override;
  [[nodiscard]] std::string name() const override { return "power-law (ATX bulk caps)"; }

  [[nodiscard]] double exponent() const { return p_; }

 private:
  [[nodiscard]] double total_seconds(double load_amps) const;

  Params params_;
  double p_ = 0.0;         ///< calibrated shape exponent
  double load_gain_ = 0.0; ///< k in T = T_u / (1 + k I)
};

/// Exponential RC decay V(t) = V0 * exp(-t / tau(load)); tau halves per
/// doubling of load past the reference point. Alternative realistic model.
class ExponentialDischarge final : public DischargeModel {
 public:
  struct Params {
    double v0 = 5.0;
    sim::Duration unloaded_tau = sim::Duration::ms(300);
    double reference_load_amps = 0.5;
    sim::Duration loaded_tau = sim::Duration::ms(120);
  };

  explicit ExponentialDischarge(const Params& p);
  ExponentialDischarge();  // out-of-line: GCC 12 in-class delegation NSDMI bug

  [[nodiscard]] double voltage(sim::Duration elapsed, double load_amps) const override;
  [[nodiscard]] sim::Duration time_to_voltage(double volts, double load_amps) const override;
  [[nodiscard]] sim::Duration full_discharge_time(double load_amps) const override;
  [[nodiscard]] std::string name() const override { return "exponential RC"; }

 private:
  [[nodiscard]] double tau_seconds(double load_amps) const;
  Params params_;
};

/// Transistor cutoff as used by the prior-work testbeds: the rail collapses
/// within `fall_time` (microseconds).
class InstantCutoff final : public DischargeModel {
 public:
  explicit InstantCutoff(double v0 = 5.0, sim::Duration fall_time = sim::Duration::us(10))
      : v0_(v0), fall_(fall_time) {}

  [[nodiscard]] double voltage(sim::Duration elapsed, double load_amps) const override;
  [[nodiscard]] sim::Duration time_to_voltage(double volts, double load_amps) const override;
  [[nodiscard]] sim::Duration full_discharge_time(double) const override { return fall_; }
  [[nodiscard]] std::string name() const override { return "instant (power transistor)"; }

 private:
  double v0_;
  sim::Duration fall_;
};

enum class DischargeKind { kPowerLaw, kExponential, kInstant };

[[nodiscard]] constexpr auto enum_names(DischargeKind) {
  return std::to_array<sim::EnumName<DischargeKind>>({{DischargeKind::kPowerLaw, "power-law"},
                                                      {DischargeKind::kExponential, "exponential"},
                                                      {DischargeKind::kInstant, "instant"}});
}
[[nodiscard]] constexpr const char* to_string(DischargeKind kind) { return sim::enum_name(kind); }
[[nodiscard]] std::unique_ptr<DischargeModel> make_discharge_model(DischargeKind kind);

}  // namespace pofi::psu
