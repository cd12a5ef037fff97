// ATX power-supply model with explicit discharge phase, plus the power rail
// connecting it to devices under test.
//
// Devices register as PowerSink listeners. When PS_ON is deasserted the
// supply schedules, analytically from the discharge model, the instants at
// which the rail crosses each sink's brownout and cutoff thresholds — no
// polling, so event counts stay independent of curve length.
#pragma once

#include <memory>
#include <vector>

#include "obs/fwd.hpp"
#include "psu/discharge_model.hpp"
#include "sim/simulator.hpp"

namespace pofi::psu {

/// A device drawing power from the rail.
class PowerSink {
 public:
  virtual ~PowerSink() = default;

  /// Steady-state current draw, used to select the discharge curve.
  [[nodiscard]] virtual double load_amps() const = 0;

  /// Voltage below which the device is dead (the paper's SSDs: 4.5 V).
  [[nodiscard]] virtual double cutoff_volts() const = 0;

  /// Voltage below which the device can detect imminent loss (PLP trigger).
  /// Return <= 0 to opt out of brownout notification.
  [[nodiscard]] virtual double brownout_volts() const { return 0.0; }

  /// Rail crossed brownout_volts() on the way down.
  virtual void on_brownout(sim::TimePoint now) { (void)now; }

  /// Rail crossed cutoff_volts(); the device loses all volatile state.
  virtual void on_power_lost(sim::TimePoint now) = 0;

  /// Rail is back at nominal voltage after a power-on.
  virtual void on_power_good(sim::TimePoint now) = 0;
};

class PowerSupply {
 public:
  enum class State { kOff, kOn, kDischarging, kCharging };

  struct Params {
    double nominal_volts = 5.0;
    sim::Duration rise_time = sim::Duration::ms(100);  ///< ATX power-good delay

    bool operator==(const Params&) const = default;
  };

  PowerSupply(sim::Simulator& simulator, std::unique_ptr<DischargeModel> model, Params params);
  // Out-of-line: GCC 12 in-class delegation NSDMI bug.
  PowerSupply(sim::Simulator& simulator, std::unique_ptr<DischargeModel> model);

  PowerSupply(const PowerSupply&) = delete;
  PowerSupply& operator=(const PowerSupply&) = delete;

  /// Register a sink. Sinks must outlive the supply. If the supply is
  /// already on, the sink immediately receives on_power_good().
  void attach(PowerSink& sink);

  /// Assert PS_ON: rail ramps to nominal over rise_time, then sinks get
  /// on_power_good(). No-op when already on/charging.
  void power_on();

  /// Deassert PS_ON: rail enters the discharge phase. No-op when off.
  void power_off();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool rail_up() const { return state_ == State::kOn; }

  /// Instantaneous rail voltage.
  [[nodiscard]] double voltage() const;

  /// Total attached DC load.
  [[nodiscard]] double total_load_amps() const;

  [[nodiscard]] const DischargeModel& model() const { return *model_; }

  /// Time from PS_ON-deassert until the rail is fully discharged at the
  /// current load (used by experiment drivers to sequence power cycles).
  [[nodiscard]] sim::Duration discharge_duration() const {
    return model_->full_discharge_time(total_load_amps());
  }

  /// Number of completed off transitions (fault injections served).
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// Instant the most recent discharge began (PS_ON deasserted).
  [[nodiscard]] sim::TimePoint last_off_at() const { return last_off_at_; }

  /// Snapshot precondition: rail steady at nominal, no threshold-crossing
  /// events scheduled (pending_ is cleared by the power-good callback).
  [[nodiscard]] bool quiescent() const { return state_ == State::kOn && pending_.empty(); }

  /// Copyable rail state at a quiescent boundary. Attached sinks are wiring,
  /// not state, exactly as in reset(); pending events are empty by the
  /// precondition and cleared by restore() on a dirty supply.
  struct StateImage {
    State state = State::kOff;
    sim::TimePoint phase_start = sim::TimePoint::zero();
    double charge_start_volts = 0.0;
    std::uint64_t cycles = 0;
    sim::TimePoint last_off_at = sim::TimePoint::zero();
    bool obs_below_active = false;
    sim::TimePoint obs_below_since = sim::TimePoint::zero();
    std::uint64_t below_cutoff_ns = 0;
  };

  void snapshot(StateImage& out) const {
    out.state = state_;
    out.phase_start = phase_start_;
    out.charge_start_volts = charge_start_volts_;
    out.cycles = cycles_;
    out.last_off_at = last_off_at_;
    out.obs_below_active = obs_below_active_;
    out.obs_below_since = obs_below_since_;
    out.below_cutoff_ns = below_cutoff_ns_;
  }

  void restore(const StateImage& image) {
    state_ = image.state;
    phase_start_ = image.phase_start;
    charge_start_volts_ = image.charge_start_volts;
    pending_.clear();
    cycles_ = image.cycles;
    last_off_at_ = image.last_off_at;
    obs_below_active_ = image.obs_below_active;
    obs_below_since_ = image.obs_below_since;
    below_cutoff_ns_ = image.below_cutoff_ns;
  }

  /// Session reset: back to the just-constructed kOff state. Attached sinks
  /// are deliberately KEPT — the pooled stack's wiring survives the reset;
  /// only rail state and counters rewind. Precondition: simulator events
  /// drained (the pending_ ids are stale by then, so they are just dropped).
  void reset() {
    state_ = State::kOff;
    phase_start_ = sim::TimePoint::zero();
    charge_start_volts_ = 0.0;
    pending_.clear();
    cycles_ = 0;
    last_off_at_ = sim::TimePoint::zero();
    obs_below_active_ = false;
    obs_below_since_ = sim::TimePoint::zero();
    below_cutoff_ns_ = 0;
  }

 private:
  void cancel_pending();
  void schedule_discharge_events();
  /// Record a rail-voltage sample (no-op without a registry). Samples are
  /// taken only inside already-scheduled events, never via new ones.
  void obs_sample_rail(double volts);

  sim::Simulator& sim_;
  std::unique_ptr<DischargeModel> model_;
  Params params_;
  State state_ = State::kOff;
  sim::TimePoint phase_start_ = sim::TimePoint::zero();
  double charge_start_volts_ = 0.0;
  std::vector<PowerSink*> sinks_;
  std::vector<sim::EventId> pending_;
  std::uint64_t cycles_ = 0;
  sim::TimePoint last_off_at_ = sim::TimePoint::zero();

  // Observability handle and bookkeeping (never read by the simulation
  // itself, so behaviour is identical with metrics off).
  obs::MetricId obs_rail_series_ = obs::kNoMetric;
  bool obs_below_active_ = false;
  sim::TimePoint obs_below_since_ = sim::TimePoint::zero();
  /// Time the rail spent below the lowest sink cutoff, summed over the
  /// power cycles that a power-good ended (the paper's unavailability).
  std::uint64_t below_cutoff_ns_ = 0;
};

}  // namespace pofi::psu
