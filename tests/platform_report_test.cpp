#include "platform/report.hpp"

#include <gtest/gtest.h>

#include "platform/fault_scheduler.hpp"
#include "psu/atx_control.hpp"

namespace pofi::platform {
namespace {

ExperimentResult sample_result() {
  ExperimentResult r;
  r.name = "unit-test";
  r.requests_submitted = 100;
  r.write_acks = 80;
  r.reads_completed = 15;
  r.faults_injected = 5;
  r.data_failures = 3;
  r.fwa_failures = 7;
  r.io_errors = 5;
  r.verified_ok = 70;
  r.sim_seconds = 12.5;
  r.mean_latency_us = 850.0;
  r.max_latency_us = 4200.0;
  r.cache_dirty_lost = 123;
  r.map_updates_reverted = 45;
  for (int i = 0; i < 10; ++i) {
    FailureRecord f;
    f.type = i % 2 == 0 ? FailureType::kFwa : FailureType::kDataFailure;
    f.ack_to_fault_ms = 50.0 * i;
    r.failures.push_back(f);
  }
  return r;
}

TEST(Report, ContainsHeadlineNumbers) {
  const std::string out = format_report(sample_result());
  EXPECT_NE(out.find("unit-test"), std::string::npos);
  EXPECT_NE(out.find("data failures       : 3"), std::string::npos);
  EXPECT_NE(out.find("false write-acks    : 7"), std::string::npos);
  EXPECT_NE(out.find("IO errors           : 5"), std::string::npos);
  EXPECT_NE(out.find("2.00"), std::string::npos);  // loss per fault
  EXPECT_NE(out.find("mean 850 us"), std::string::npos);
}

TEST(Report, IncludesIntervalHistogram) {
  const std::string out = format_report(sample_result());
  EXPECT_NE(out.find("ACK-to-fault interval"), std::string::npos);
  EXPECT_NE(out.find("p95 interval"), std::string::npos);
}

TEST(Report, EmptyCampaignRendersCleanly) {
  ExperimentResult r;
  r.name = "empty";
  const std::string out = format_report(r);
  EXPECT_NE(out.find("empty"), std::string::npos);
  EXPECT_EQ(out.find("ACK-to-fault"), std::string::npos);  // no failures
}

// ------------------------------------------------------- FaultScheduler unit

TEST(FaultScheduler, ArmFaultLandsWithinJitterWindow) {
  sim::Simulator sim(5);
  psu::PowerSupply psu(sim, std::make_unique<psu::PowerLawDischarge>());
  psu::AtxController atx(psu);
  psu::ArduinoBridge bridge(sim, atx);
  FaultScheduler sched(sim, bridge, psu, sim.fork_rng("sched-test"));

  bridge.send(psu::PowerCommand::kOn);
  sim.run_for(sim::Duration::ms(200));
  ASSERT_EQ(psu.state(), psu::PowerSupply::State::kOn);

  const auto at = sched.arm_fault(sim::Duration::ms(100));
  EXPECT_GE(at, sim.now());
  EXPECT_LE((at - sim.now()).to_ms(), 100.0);
  sim.run_for(sim::Duration::ms(105));
  EXPECT_TRUE(sched.fault_in_progress());
  EXPECT_EQ(sched.faults_commanded(), 1u);
  // Command + serial latency: the discharge began close to the armed time.
  EXPECT_NEAR(sched.last_fault_at().to_ms(), at.to_ms(), 2.0);
  sim.run_for(sim::Duration::sec(2));
  EXPECT_TRUE(sched.rail_fully_down());
}

TEST(FaultScheduler, CommandOffOnRoundTrip) {
  sim::Simulator sim(6);
  psu::PowerSupply psu(sim, std::make_unique<psu::PowerLawDischarge>());
  psu::AtxController atx(psu);
  psu::ArduinoBridge bridge(sim, atx);
  FaultScheduler sched(sim, bridge, psu, sim.fork_rng("sched-test"));

  sched.command_on();
  sim.run_for(sim::Duration::ms(200));
  EXPECT_FALSE(sched.fault_in_progress());
  sched.command_off();
  sim.run_for(sim::Duration::sec(2));
  EXPECT_TRUE(sched.rail_fully_down());
  sched.command_on();
  sim.run_for(sim::Duration::ms(200));
  EXPECT_FALSE(sched.fault_in_progress());
  EXPECT_EQ(sched.faults_commanded(), 1u);
}

}  // namespace
}  // namespace pofi::platform
