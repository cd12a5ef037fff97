// Quickstart: inject 20 realistic power faults into a simulated commodity
// SSD while it absorbs random writes, then print the failure report.
//
// The whole campaign is data: specs/quickstart.json picks the drive
// (Table I's SSD-A scaled to 16 GB), the 4 KiB..1 MiB uniform-random write
// workload and the fault schedule. Edit the JSON and rerun — no rebuild.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
// or equivalently:  ./build/examples/pofi_run --spec specs/quickstart.json
#include <cstdio>
#include <exception>

#include "example_common.hpp"
#include "platform/report.hpp"
#include "spec/campaign.hpp"
#include "spec/version.hpp"
#include "stats/table.hpp"

int main() try {
  using namespace pofi;

  const spec::CampaignSpec campaign =
      spec::load_campaign_file(examples::spec_file("quickstart.json"));
  const auto rows = spec::run_campaign_rows(campaign);

  const auto& drive = campaign.entries.front().drive;
  stats::print_banner("pofi quickstart: " + drive.model + " under realistic power faults");

  platform::ReportOptions ro;
  ro.spec_hash = spec::hash_string(campaign.hash);
  ro.version = spec::pofi_version();
  std::fputs(platform::format_report(rows.front().result, ro).c_str(), stdout);
  std::printf(
      "\nnext steps: render a paper figure (pofi_run --spec specs/fig7_request_size.json)\n"
      "or run the other examples (datacenter_outage, acid_torture, vendor_qualification).\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
