#include "psu/power_supply.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::psu {

PowerSupply::PowerSupply(sim::Simulator& simulator, std::unique_ptr<DischargeModel> model,
                         Params params)
    : sim_(simulator), model_(std::move(model)), params_(params) {
  if (auto* m = sim_.metrics()) {
    // Rail timeline sampled at phase transitions and threshold crossings
    // (~6 samples per power cycle): enough for hundreds of faults.
    obs_rail_series_ = m->series("psu.rail.volts", 4096);
    m->counter_source("psu.rail.below_cutoff_ns", &below_cutoff_ns_);
  }
}

void PowerSupply::obs_sample_rail(double volts) {
  if (auto* m = sim_.metrics()) m->sample(obs_rail_series_, sim_.now(), volts);
}

PowerSupply::PowerSupply(sim::Simulator& simulator, std::unique_ptr<DischargeModel> model)
    : PowerSupply(simulator, std::move(model), Params{}) {}

void PowerSupply::attach(PowerSink& sink) {
  sinks_.push_back(&sink);
  if (state_ == State::kOn) sink.on_power_good(sim_.now());
}

double PowerSupply::total_load_amps() const {
  double amps = 0.0;
  for (const auto* s : sinks_) amps += s->load_amps();
  return amps;
}

double PowerSupply::voltage() const {
  switch (state_) {
    case State::kOff: return 0.0;
    case State::kOn: return params_.nominal_volts;
    case State::kDischarging:
      return model_->voltage(sim_.now() - phase_start_, total_load_amps());
    case State::kCharging: {
      const double f = std::min(1.0, (sim_.now() - phase_start_).to_sec() /
                                         std::max(1e-9, params_.rise_time.to_sec()));
      return charge_start_volts_ + (params_.nominal_volts - charge_start_volts_) * f;
    }
  }
  return 0.0;
}

void PowerSupply::cancel_pending() {
  for (auto id : pending_) sim_.cancel(id);
  pending_.clear();
}

void PowerSupply::power_on() {
  if (state_ == State::kOn || state_ == State::kCharging) return;
  charge_start_volts_ = voltage();
  cancel_pending();
  state_ = State::kCharging;
  phase_start_ = sim_.now();
  POFI_DEBUG(sim_.now(), "psu", "power_on (from %.2fV)", charge_start_volts_);
  obs_sample_rail(charge_start_volts_);
  pending_.push_back(sim_.after(params_.rise_time, [this] {
    state_ = State::kOn;
    pending_.clear();
    obs_sample_rail(params_.nominal_volts);
    if (obs_below_active_) {
      below_cutoff_ns_ += static_cast<std::uint64_t>((sim_.now() - obs_below_since_).count_ns());
      obs_below_active_ = false;
    }
    for (auto* s : sinks_) s->on_power_good(sim_.now());
  }));
}

void PowerSupply::power_off() {
  if (state_ == State::kOff || state_ == State::kDischarging) return;
  cancel_pending();
  state_ = State::kDischarging;
  phase_start_ = sim_.now();
  last_off_at_ = sim_.now();
  ++cycles_;
  POFI_DEBUG(sim_.now(), "psu", "power_off; discharge begins");
  obs_sample_rail(voltage());
  schedule_discharge_events();
}

void PowerSupply::schedule_discharge_events() {
  const double load = total_load_amps();
  // Sinks whose thresholds sit higher on the curve fire earlier; the event
  // queue orders them for us. Brownout strictly precedes cutoff because
  // discharge curves are monotone and brownout_volts > cutoff_volts.
  for (auto* s : sinks_) {
    if (s->brownout_volts() > 0.0) {
      const auto t_brown = model_->time_to_voltage(s->brownout_volts(), load);
      pending_.push_back(sim_.after(t_brown, [this, s] {
        obs_sample_rail(s->brownout_volts());
        s->on_brownout(sim_.now());
      }));
    }
    const auto t_dead = model_->time_to_voltage(s->cutoff_volts(), load);
    pending_.push_back(sim_.after(t_dead, [this, s] {
      obs_sample_rail(s->cutoff_volts());
      if (!obs_below_active_) {
        obs_below_active_ = true;
        obs_below_since_ = sim_.now();
      }
      s->on_power_lost(sim_.now());
    }));
  }
  const auto t_zero = model_->full_discharge_time(load);
  pending_.push_back(sim_.after(t_zero, [this] {
    state_ = State::kOff;
    pending_.clear();
    obs_sample_rail(0.0);
    POFI_DEBUG(sim_.now(), "psu", "rail fully discharged");
  }));
}

}  // namespace pofi::psu
