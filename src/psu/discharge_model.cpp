#include "psu/discharge_model.hpp"

#include <algorithm>
#include <cmath>

namespace pofi::psu {

namespace {
constexpr double kZeroVolts = 0.05;  // "effectively discharged"
}

// ---------------------------------------------------------------- PowerLaw

PowerLawDischarge::PowerLawDischarge() : PowerLawDischarge(Params{}) {}

PowerLawDischarge::PowerLawDischarge(const Params& p) : params_(p) {
  // Shape exponent from the loaded calibration pair (t1, v_th):
  //   v_th = V0 * (1 - (t1/T_l)^p)  =>  p = ln(1 - v_th/V0) / ln(t1/T_l)
  const double frac_v = 1.0 - params_.threshold_volts / params_.v0;
  const double frac_t = params_.loaded_threshold_time.to_sec() / params_.loaded_total.to_sec();
  p_ = std::log(frac_v) / std::log(frac_t);
  // Load gain from T_loaded = T_unloaded / (1 + k * I_ref).
  load_gain_ = (params_.unloaded_total.to_sec() / params_.loaded_total.to_sec() - 1.0) /
               params_.reference_load_amps;
}

double PowerLawDischarge::total_seconds(double load_amps) const {
  const double amps = std::max(0.0, load_amps);
  return params_.unloaded_total.to_sec() / (1.0 + load_gain_ * amps);
}

double PowerLawDischarge::voltage(sim::Duration elapsed, double load_amps) const {
  if (elapsed.is_negative()) return params_.v0;
  const double t = elapsed.to_sec();
  const double total = total_seconds(load_amps);
  if (t >= total) return 0.0;
  const double v = params_.v0 * (1.0 - std::pow(t / total, p_));
  return std::max(0.0, v);
}

sim::Duration PowerLawDischarge::time_to_voltage(double volts, double load_amps) const {
  if (volts >= params_.v0) return sim::Duration::zero();
  const double total = total_seconds(load_amps);
  if (volts <= 0.0) return sim::Duration::sec_f(total);
  const double frac = 1.0 - volts / params_.v0;  // (t/T)^p
  const double t = total * std::pow(frac, 1.0 / p_);
  return sim::Duration::sec_f(t);
}

sim::Duration PowerLawDischarge::full_discharge_time(double load_amps) const {
  return time_to_voltage(kZeroVolts, load_amps);
}

// ------------------------------------------------------------- Exponential

ExponentialDischarge::ExponentialDischarge() : ExponentialDischarge(Params{}) {}

ExponentialDischarge::ExponentialDischarge(const Params& p) : params_(p) {}

double ExponentialDischarge::tau_seconds(double load_amps) const {
  const double amps = std::max(0.0, load_amps);
  const double u = params_.unloaded_tau.to_sec();
  const double l = params_.loaded_tau.to_sec();
  // Linear conductance model: 1/tau = 1/tau_u + g * I, calibrated so that
  // the reference load yields tau_l.
  const double g = (1.0 / l - 1.0 / u) / params_.reference_load_amps;
  return 1.0 / (1.0 / u + g * amps);
}

double ExponentialDischarge::voltage(sim::Duration elapsed, double load_amps) const {
  if (elapsed.is_negative()) return params_.v0;
  return params_.v0 * std::exp(-elapsed.to_sec() / tau_seconds(load_amps));
}

sim::Duration ExponentialDischarge::time_to_voltage(double volts, double load_amps) const {
  if (volts >= params_.v0) return sim::Duration::zero();
  const double floor_v = std::max(volts, 1e-6);
  const double t = tau_seconds(load_amps) * std::log(params_.v0 / floor_v);
  return sim::Duration::sec_f(t);
}

sim::Duration ExponentialDischarge::full_discharge_time(double load_amps) const {
  return time_to_voltage(kZeroVolts, load_amps);
}

// ----------------------------------------------------------------- Instant

double InstantCutoff::voltage(sim::Duration elapsed, double /*load_amps*/) const {
  if (elapsed.is_negative()) return v0_;
  if (elapsed >= fall_) return 0.0;
  // Linear collapse across the (tiny) fall window.
  const double f = elapsed.to_sec() / fall_.to_sec();
  return v0_ * (1.0 - f);
}

sim::Duration InstantCutoff::time_to_voltage(double volts, double /*load_amps*/) const {
  if (volts >= v0_) return sim::Duration::zero();
  if (volts <= 0.0) return fall_;
  return fall_.scaled(1.0 - volts / v0_);
}

std::unique_ptr<DischargeModel> make_discharge_model(DischargeKind kind) {
  switch (kind) {
    case DischargeKind::kPowerLaw: return std::make_unique<PowerLawDischarge>();
    case DischargeKind::kExponential: return std::make_unique<ExponentialDischarge>();
    case DischargeKind::kInstant: return std::make_unique<InstantCutoff>();
  }
  return std::make_unique<PowerLawDischarge>();
}


}  // namespace pofi::psu
