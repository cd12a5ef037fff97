// CampaignSpec expansion semantics, running code-built campaigns into rows,
// plus round-trip goldens over every committed specs/*.json file.
//
// The committed-spec half enforces two invariants the CLI and CI rely on:
//   * canonical() is a fixed point — parse(canonical(doc)) re-canonicalises
//     to the same bytes, so the content hash stamped into results is stable
//     across dump/--dump-spec round trips;
//   * every committed file is known here: campaign and torture docs must
//     load, expand and address only LPNs their drive has. A new spec file
//     fails the test until it is categorised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "spec/codec.hpp"
#include "spec/value.hpp"
#include "ssd/presets.hpp"
#include "torture/torture_spec.hpp"

namespace pofi::spec {
namespace {

std::string spec_dir() {
  const char* dir = std::getenv("POFI_SPEC_DIR");
  return dir == nullptr ? POFI_SPEC_DIR : dir;
}

// --- expansion semantics ----------------------------------------------------

TEST(SpecCampaign, MinimalDocYieldsOneDerivedEntry) {
  const CampaignSpec spec = load_campaign(parse("{}"));
  ASSERT_EQ(spec.entries.size(), 1U);
  EXPECT_EQ(spec.name, "campaign");
  EXPECT_EQ(spec.master_seed, 42U);
  EXPECT_EQ(spec.entries[0].label, platform::ExperimentSpec{}.name);
  // Omitted seed derives, never copies the master: the seed-42 footgun.
  EXPECT_EQ(spec.entries[0].experiment.seed, sim::derive_seed(42, 0));
}

TEST(SpecCampaign, PinnedSeedIsKeptVerbatim) {
  const CampaignSpec spec = load_campaign(parse(R"({"experiment": {"seed": 7}})"));
  ASSERT_EQ(spec.entries.size(), 1U);
  EXPECT_EQ(spec.entries[0].experiment.seed, 7U);
}

TEST(SpecCampaign, SweepIsCartesianFirstAxisOutermost) {
  const CampaignSpec spec = load_campaign(parse(R"({
    "seed": 100,
    "experiment": {"name": "s"},
    "sweep": {
      "experiment.faults": [1, 2],
      "experiment.workload.max_pages": [4, 8]
    }
  })"));
  ASSERT_EQ(spec.entries.size(), 4U);
  const std::uint32_t want_faults[] = {1, 1, 2, 2};
  const std::uint32_t want_pages[] = {4, 8, 4, 8};
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(spec.entries[i].experiment.faults, want_faults[i]);
    EXPECT_EQ(spec.entries[i].experiment.workload.max_pages, want_pages[i]);
    // Per-entry seeds derive from the flat index in expansion order.
    EXPECT_EQ(spec.entries[i].experiment.seed, sim::derive_seed(100, i));
  }
  // Auto-naming: base name + [axis=value ...] in file order.
  EXPECT_EQ(spec.entries[0].label, "s[faults=1 max_pages=4]");
  EXPECT_EQ(spec.entries[3].label, "s[faults=2 max_pages=8]");
}

TEST(SpecCampaign, SweptNameSuppressesAutoNaming) {
  const CampaignSpec spec = load_campaign(parse(R"({
    "sweep": {"experiment.name": ["alpha", "beta"]}
  })"));
  ASSERT_EQ(spec.entries.size(), 2U);
  EXPECT_EQ(spec.entries[0].label, "alpha");
  EXPECT_EQ(spec.entries[1].label, "beta");
}

TEST(SpecCampaign, SweepCanChangeDrivePreset) {
  // Merging precedes parsing, so even the preset choice is sweepable.
  const CampaignSpec spec = load_campaign(parse(R"({
    "drive": {"capacity_gb": 1},
    "sweep": {"drive.preset": ["A", "B"]}
  })"));
  ASSERT_EQ(spec.entries.size(), 2U);
  EXPECT_NE(spec.entries[0].drive.model, spec.entries[1].drive.model);
}

TEST(SpecCampaign, EntriesDeepMergeOntoBase) {
  const CampaignSpec spec = load_campaign(parse(R"({
    "drive": {"preset": "A", "capacity_gb": 1},
    "experiment": {"name": "q", "workload": {"max_pages": 16}},
    "entries": [
      {"experiment": {"name": "q-a", "seed": 11}},
      {"drive": {"plp": true}, "experiment": {"name": "q-b", "seed": 12}}
    ]
  })"));
  ASSERT_EQ(spec.entries.size(), 2U);
  EXPECT_EQ(spec.entries[0].label, "q-a");
  EXPECT_EQ(spec.entries[0].experiment.seed, 11U);
  // Base workload survives the overlay (deep merge, not replace).
  EXPECT_EQ(spec.entries[1].experiment.workload.max_pages, 16U);
  EXPECT_EQ(spec.entries[1].experiment.seed, 12U);
}

TEST(SpecCampaign, UnitsReplicateWithIndependentSeeds) {
  const CampaignSpec spec = load_campaign(parse(R"({"seed": 9, "units": 3})"));
  ASSERT_EQ(spec.entries.size(), 3U);
  std::set<std::uint64_t> seeds;
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(spec.entries[u].label, "unit-" + std::to_string(u + 1));
    EXPECT_EQ(spec.entries[u].experiment.seed, sim::derive_seed(9, u));
    seeds.insert(spec.entries[u].experiment.seed);
  }
  EXPECT_EQ(seeds.size(), 3U);  // statistically independent copies
}

TEST(SpecCampaign, UnitsRejectPinnedSeed) {
  try {
    (void)load_campaign(parse("{\"experiment\": {\"seed\": 5},\n \"units\": 2}"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "units");
    // Located at the units value, not at the document.
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.col(), 11);
  }
}

TEST(SpecCampaign, SweepAndEntriesAreMutuallyExclusive) {
  EXPECT_THROW((void)load_campaign(parse(
                   R"({"sweep": {"experiment.faults": [1]}, "entries": [{}]})")),
               Error);
}

TEST(SpecCampaign, UnknownRootAndEntryKeysAreNamed) {
  try {
    (void)load_campaign(parse("{\n  \"bogus\": 1\n}"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "bogus");
    EXPECT_EQ(e.line(), 2);
  }
  try {
    (void)load_campaign(parse(R"({"entries": [{"workload": {}}]})"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "workload");  // overlays may only touch the 3 roots
  }
}

TEST(SpecCampaign, SweepPathMustTargetKnownSection) {
  try {
    (void)load_campaign(parse(R"({"sweep": {"runner.threads": [1, 2]}})"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "runner.threads");
  }
}

TEST(SpecCampaign, WorkloadPastTheDriveIsRejectedWithItsLocation) {
  // A 1 GiB preset has 262144 LPNs of 4 KiB: a working set may end exactly
  // there and not one page later, however it gets past the end.
  const auto where = [](const char* doc) -> std::string {
    try {
      (void)load_campaign(parse(doc));
    } catch (const Error& e) {
      return e.where() + "@" + std::to_string(e.line()) + ":" + std::to_string(e.col());
    }
    return "accepted";
  };
  EXPECT_EQ(where(R"({"drive": {"preset": "A", "capacity_gb": 1},
    "experiment": {"workload": {"wss_pages": 262144}}})"),
            "accepted");
  EXPECT_EQ(where(R"({"drive": {"preset": "A", "capacity_gb": 1},
    "experiment": {"workload": {"wss_pages": 262145}}})"),
            "wss_pages@2:46");
  EXPECT_EQ(where(R"({"drive": {"preset": "A", "capacity_gb": 1},
    "experiment": {"workload": {"wss_pages": 262144, "base_lpn": 1}}})"),
            "wss_pages@2:46");
  // base_lpn + wss_pages wraps around 2^64: still past the end.
  EXPECT_EQ(where(R"({"drive": {"preset": "A", "capacity_gb": 1},
    "experiment": {"workload": {"wss_pages": 256, "base_lpn": 18446744073709551615}}})"),
            "wss_pages@2:46");
  // Every entry is checked against its own drive: the second entry's
  // overlay shrinks the drive under the base working set.
  EXPECT_EQ(where(R"({"drive": {"preset": "A", "capacity_gb": 2},
    "experiment": {"workload": {"wss_pages": 300000}},
    "entries": [{}, {"drive": {"capacity_gb": 1}}]})"),
            "wss_pages@2:46");
  // A replay workload ignores wss_pages; each replayed request is checked.
  EXPECT_EQ(where(R"({"drive": {"preset": "A", "capacity_gb": 1},
    "experiment": {"workload": {"wss_pages": 1000000000000,
      "replay": [{"lpn": 0}, {"lpn": 262143, "pages": 2}]}}})"),
            "replay@3:30");
  // Torture documents share the check.
  try {
    (void)torture::load_torture(parse(R"({"drive": {"preset": "A", "capacity_gb": 1},
      "workload": {"wss_pages": 262145}})"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "wss_pages");
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(SpecCampaign, HashMatchesDocumentContentHash) {
  const Value doc = parse(R"({"name": "h", "experiment": {"faults": 3}})");
  const CampaignSpec spec = load_campaign(doc);
  EXPECT_EQ(spec.hash, content_hash(doc));
}

TEST(SpecCampaign, HashIgnoresRunnerConfig) {
  // Results are bit-identical at any thread count, so execution config must
  // not perturb the provenance stamp (pofi_run --threads N included).
  const CampaignSpec base = load_campaign(parse(R"({"name": "h"})"));
  const CampaignSpec t1 =
      load_campaign(parse(R"({"name": "h", "runner": {"threads": 1}})"));
  const CampaignSpec t8 =
      load_campaign(parse(R"({"name": "h", "runner": {"threads": 8}})"));
  EXPECT_EQ(t1.hash, base.hash);
  EXPECT_EQ(t8.hash, base.hash);
  EXPECT_EQ(t8.runner.threads, 8U);  // still applied, just not hashed
}

// --- running campaigns ------------------------------------------------------

/// A campaign built in code: one small entry (200 requests, 4 faults on a
/// 1 GB preset-A drive) per {label, plp, seed}.
struct TinyEntry {
  const char* label;
  bool plp;
  std::uint64_t seed;
};
CampaignSpec tiny_campaign(std::initializer_list<TinyEntry> entries) {
  CampaignSpec campaign;
  for (const TinyEntry& t : entries) {
    CampaignEntry entry;
    entry.label = t.label;
    ssd::PresetOptions opts;
    opts.capacity_override_gb = 1;
    opts.plp = t.plp;
    entry.drive = ssd::make_preset(ssd::VendorModel::kA, opts);
    entry.drive.mount_delay = sim::Duration::ms(50);
    platform::ExperimentSpec& spec = entry.experiment;
    spec.name = "suite-entry";
    spec.workload.wss_pages = (256ULL << 20) / 4096;
    spec.workload.min_pages = 1;
    spec.workload.max_pages = 16;
    spec.total_requests = 200;
    spec.faults = 4;
    spec.pace_iops = 40.0;
    spec.seed = t.seed;
    campaign.entries.push_back(std::move(entry));
  }
  return campaign;
}

TEST(CampaignRows, RunsEveryEntry) {
  const auto rows = run_campaign_rows(tiny_campaign({{"commodity", false, 1}, {"plp", true, 1}}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "commodity");
  EXPECT_EQ(rows[1].label, "plp");
  for (const auto& row : rows) {
    EXPECT_EQ(row.result.faults_injected, 4u);
    EXPECT_GT(row.result.requests_submitted, 0u);
  }
  // Same workload, same faults: the commodity drive loses, the PLP doesn't.
  EXPECT_GT(rows[0].result.total_data_loss(), 0u);
  EXPECT_EQ(rows[1].result.total_data_loss(), 0u);
}

TEST(CampaignRows, EntriesAreIndependent) {
  // Two identical entries must produce identical results: the second runs
  // on the first one's pooled stack, reset to just-built state (no shared
  // device history).
  const auto rows = run_campaign_rows(tiny_campaign({{"a", false, 7}, {"b", false, 7}}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].result.data_failures, rows[1].result.data_failures);
  EXPECT_EQ(rows[0].result.fwa_failures, rows[1].result.fwa_failures);
  EXPECT_EQ(rows[0].result.requests_submitted, rows[1].result.requests_submitted);
  EXPECT_DOUBLE_EQ(rows[0].result.sim_seconds, rows[1].result.sim_seconds);
}

TEST(CampaignRows, SummaryTableContainsEveryRow) {
  const auto rows = run_campaign_rows(tiny_campaign({{"row-one", false, 2}, {"row-two", true, 3}}));
  const std::string table = summary_table(rows);
  EXPECT_NE(table.find("row-one"), std::string::npos);
  EXPECT_NE(table.find("row-two"), std::string::npos);
  EXPECT_NE(table.find("loss/fault"), std::string::npos);
}

TEST(CampaignRows, SummaryCsvHasTheTableColumnsOneRowPerEntry) {
  const CampaignSpec campaign =
      tiny_campaign({{"row-one", false, 2}, {"row-two", true, 3}, {"row-three", false, 4}});
  const auto rows = run_campaign_rows(campaign);
  const std::string csv = summary_csv(rows, campaign).render();

  const auto split = [](const std::string& text, const std::string& sep) {
    std::vector<std::string> parts;
    for (std::size_t at = 0; at <= text.size();) {
      const std::size_t end = std::min(text.find(sep, at), text.size());
      std::string part = text.substr(at, end - at);
      while (!part.empty() && part.back() == ' ') part.pop_back();
      while (!part.empty() && part.front() == ' ') part.erase(0, 1);
      if (!part.empty()) parts.push_back(part);
      at = end + sep.size();
    }
    return parts;
  };
  std::vector<std::string> comments, data;
  for (const auto& line : split(csv, "\n")) {
    (line.rfind("# ", 0) == 0 ? comments : data).push_back(line);
  }
  ASSERT_EQ(comments.size(), 3u);
  EXPECT_EQ(comments[0], "# spec: " + hash_string(campaign.hash));
  EXPECT_EQ(comments[1].rfind("# build: ", 0), 0u);
  EXPECT_EQ(comments[2], "# entries: ok=3 timed-out=0 restored=0");

  ASSERT_EQ(data.size(), 1 + rows.size());
  EXPECT_EQ(data[0],
            "campaign,faults,requests,data failures,FWA,IO errors,loss/fault,"
            "responded IOPS,mean Q2C us");
  // One row per entry, in entry order, keyed by the label; counts exact.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i].result;
    const auto cells = split(data[1 + i], ",");
    ASSERT_EQ(cells.size(), 9u) << data[1 + i];
    EXPECT_EQ(cells[0], rows[i].label);
    EXPECT_EQ(cells[1], std::to_string(r.faults_injected));
    EXPECT_EQ(cells[2], std::to_string(r.requests_submitted));
    EXPECT_EQ(cells[4], std::to_string(r.fwa_failures));
  }
  // Every table column is a CSV column: the table header's cells are
  // separated by at least two spaces.
  const std::string table = summary_table(rows);
  const auto csv_columns = split(data[0], ",");
  const auto table_columns = split(table.substr(0, table.find('\n')), "  ");
  EXPECT_EQ(table_columns.size(), csv_columns.size());
  for (const auto& column : table_columns) {
    EXPECT_NE(std::find(csv_columns.begin(), csv_columns.end(), column), csv_columns.end())
        << column;
  }
}

TEST(CampaignRows, EmptyCampaignIsFine) {
  const auto rows = run_campaign_rows(CampaignSpec{});
  EXPECT_TRUE(rows.empty());
  EXPECT_NE(summary_table(rows).find("campaign"), std::string::npos);
}

TEST(CampaignRows, ParallelRowsMatchSequentialRows) {
  auto campaign = tiny_campaign({{"one", false, 11}, {"two", true, 12}, {"three", false, 13}});
  const auto seq = run_campaign_rows(campaign);
  campaign.runner.threads = 3;
  const auto par = run_campaign_rows(campaign);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].label, par[i].label);
    EXPECT_EQ(seq[i].result.data_failures, par[i].result.data_failures);
    EXPECT_EQ(seq[i].result.fwa_failures, par[i].result.fwa_failures);
    EXPECT_EQ(seq[i].result.requests_submitted, par[i].result.requests_submitted);
    EXPECT_DOUBLE_EQ(seq[i].result.sim_seconds, par[i].result.sim_seconds);
  }
}

TEST(CampaignRows, RunCampaignReportsPerEntryStatus) {
  const auto outcomes = run_campaign(tiny_campaign({{"solo", false, 21}}));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].label, "solo");
  EXPECT_EQ(outcomes[0].status, runner::CampaignStatus::kOk);
  EXPECT_GT(outcomes[0].wall_seconds, 0.0);
  EXPECT_EQ(outcomes[0].result.faults_injected, 4u);
}

TEST(CampaignRows, FoldKeepsSuccessesAndThrowsOnFailures) {
  using runner::CampaignStatus;
  const auto fold = [](std::initializer_list<CampaignStatus> statuses) {
    std::vector<runner::CampaignRunner::Outcome> outcomes;
    for (const CampaignStatus status : statuses) {
      outcomes.emplace_back().label = to_string(status);
      outcomes.back().status = status;
    }
    return campaign_rows(std::move(outcomes));
  };
  // Successes become rows in entry order; entries that never finished
  // (fail-fast or cancellation) have none.
  const auto rows = fold({CampaignStatus::kOk, CampaignStatus::kPending,
                          CampaignStatus::kTimedOut, CampaignStatus::kCancelled,
                          CampaignStatus::kTimedOut, CampaignStatus::kSkipped,
                          CampaignStatus::kSkippedCached});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].label, "ok");
  EXPECT_EQ(rows[1].label, "timed-out");
  EXPECT_EQ(rows[2].label, "timed-out");
  EXPECT_EQ(rows[3].label, "skipped-cached");
  // A failed, audit-failed or quarantined entry fails the whole fold.
  EXPECT_THROW((void)fold({CampaignStatus::kOk, CampaignStatus::kFailed}), std::runtime_error);
  EXPECT_THROW((void)fold({CampaignStatus::kAuditFailed}), std::runtime_error);
  EXPECT_THROW((void)fold({CampaignStatus::kQuarantined}), std::runtime_error);
}

// --- committed specs --------------------------------------------------------

// Campaign documents: loaded by load_campaign and run by pofi_run --spec.
const char* const kCampaignSpecs[] = {
    "quickstart.json",       "vendor_qualification.json",
    "fig5_request_type.json", "fig6_wss.json",
    "fig7_request_size.json", "fig8_iops.json",
    "fig9_sequences.json",    "secIVA_post_ack_interval.json",
    "secIVD_access_pattern.json", "table1_smoke.json",
    "golden.json",            "large_drive.json",
    "ablation_cutoff_model.json", "ablation_cache_plp.json",
    "ablation_por_recovery.json",
};
// Torture docs: crash-point exploration lattices (a "torture" section makes
// pofi_run --spec run a sweep), loaded through torture::load_torture_file
// rather than load_campaign.
const char* const kTortureSpecs[] = {
    "torture_smoke.json",
};

TEST(SpecCampaign, EveryCommittedSpecIsCategorised) {
  std::set<std::string> known;
  for (const char* f : kCampaignSpecs) known.insert(f);
  for (const char* f : kTortureSpecs) known.insert(f);

  std::size_t seen = 0;
  for (const auto& e : std::filesystem::directory_iterator(spec_dir())) {
    if (e.path().extension() != ".json") continue;
    ++seen;
    EXPECT_TRUE(known.count(e.path().filename().string()))
        << e.path() << " is committed but not categorised in this test";
  }
  EXPECT_EQ(seen, known.size()) << "a categorised spec file is missing on disk";
}

TEST(SpecCampaign, CommittedTortureSpecsLoadAndRoundTrip) {
  for (const char* file : kTortureSpecs) {
    SCOPED_TRACE(file);
    const auto cfg = torture::load_torture_file(spec_dir() + "/" + file);
    EXPECT_GE(cfg.requests, 1u);
    EXPECT_GE(cfg.stride, 1u);
    // The workload addresses only LPNs its drive has.
    EXPECT_LE(cfg.workload.base_lpn + cfg.workload.wss_pages, ssd::lpn_space(cfg.drive));
    // to_json round-trips through load_torture and preserves the hash.
    const auto back = torture::load_torture(torture::to_json(cfg));
    EXPECT_EQ(torture::torture_hash(back), torture::torture_hash(cfg));
  }
}

TEST(SpecCampaign, CommittedSpecsRoundTripCanonically) {
  for (const auto& e : std::filesystem::directory_iterator(spec_dir())) {
    if (e.path().extension() != ".json") continue;
    SCOPED_TRACE(e.path().string());
    const Value doc = parse_file(e.path().string());
    // dump() → parse() is lossless...
    EXPECT_TRUE(parse(dump(doc)) == doc);
    // ...and canonical() is a fixed point, so the content hash is stable.
    const std::string c = canonical(doc);
    EXPECT_EQ(canonical(parse(c)), c);
    EXPECT_EQ(content_hash(parse(dump(doc))), content_hash(doc));
  }
}

TEST(SpecCampaign, CommittedCampaignSpecsLoadAndExpand) {
  for (const char* file : kCampaignSpecs) {
    SCOPED_TRACE(file);
    const CampaignSpec spec = load_campaign_file(spec_dir() + "/" + file);
    EXPECT_FALSE(spec.entries.empty());
    // load_campaign accepts duplicate labels (rows come back in entry
    // order), but every entry must be nameable and built.
    for (const auto& entry : spec.entries) {
      EXPECT_FALSE(entry.label.empty());
      EXPECT_FALSE(entry.drive.model.empty());
      const workload::WorkloadConfig& wl = entry.experiment.workload;
      EXPECT_LE(wl.base_lpn + wl.wss_pages, ssd::lpn_space(entry.drive)) << entry.label;
    }
  }
}

TEST(SpecCampaign, CommittedCampaignSpecsHaveUniqueLabels) {
  // The label is the key of a summary row and of its CSV line, and carries
  // the figure's x value: no committed spec may reuse one.
  for (const char* file : kCampaignSpecs) {
    SCOPED_TRACE(file);
    const CampaignSpec spec = load_campaign_file(spec_dir() + "/" + file);
    std::set<std::string> labels;
    for (const auto& entry : spec.entries) {
      EXPECT_TRUE(labels.insert(entry.label).second) << "duplicate label " << entry.label;
    }
  }
}

// The README's library snippet, run as written against the committed
// quickstart spec: one row, every scheduled fault injected.
TEST(SpecCampaign, ReadmeLibrarySnippetRunsQuickstart) {
  const auto campaign = load_campaign_file(spec_dir() + "/quickstart.json");
  const auto rows = run_campaign_rows(campaign);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "quickstart");
  EXPECT_EQ(rows[0].result.faults_injected, campaign.entries.front().experiment.faults);
  EXPECT_EQ(rows[0].result.faults_injected, 20u);
}

}  // namespace
}  // namespace pofi::spec
