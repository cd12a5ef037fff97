// Randomised round-trip and mutation fuzzing for the spec JSON layer.
//
// Three deterministic loops (seeded sim::Rng, no wall clock):
//   * round-trip: random document trees must survive dump() → parse() with
//     value AND kind equality, and canonical() must be a fixed point;
//   * mutation: corrupted serialisations must either parse or throw
//     spec::Error — never crash, never throw anything else;
//   * codec mutation: committed specs and a checkpoint record, mutated at
//     the Value level (a member's value swapped for one of another kind, a
//     key renamed, a section dropped), must either load through
//     load_campaign / load_torture / checkpoint_record_from_json or throw
//     spec::Error with a location.
//
// Iteration count comes from $POFI_FUZZ_ITERS (default 200 per loop, kept
// small for ctest); scripts/check.sh runs a longer soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "spec/checkpoint.hpp"
#include "spec/value.hpp"
#include "torture/torture_spec.hpp"

namespace pofi::spec {
namespace {

int fuzz_iters() {
  const char* env = std::getenv("POFI_FUZZ_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 200;
}

std::string random_string(sim::Rng& rng) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      " _.-/\\\"\n\t{}[]:,";
  std::string s;
  const auto len = rng.below(12);
  for (std::uint64_t i = 0; i < len; ++i) {
    s += alphabet[rng.below(sizeof alphabet - 1)];
  }
  return s;
}

Value random_value(sim::Rng& rng, int depth) {
  // Containers get rarer with depth so trees stay small and terminate.
  const std::uint64_t pick = rng.below(depth <= 0 ? 6 : 8);
  switch (pick) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.chance(0.5));
    case 2: return Value(rng.next());  // full uint64 range
    case 3: return Value(-static_cast<std::int64_t>(rng.below(1ULL << 62)) - 1);
    case 4: {
      // Finite doubles only: NaN breaks operator== by design, inf has no
      // JSON form. Mix integral-valued doubles in to exercise the ".0" path.
      const double d = rng.chance(0.3)
                           ? static_cast<double>(rng.below(1'000'000))
                           : (rng.uniform() - 0.5) * 1e12;
      return Value(d);
    }
    case 5: return Value(random_string(rng));
    case 6: {
      Value arr = Value::array();
      const auto n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.push_back(random_value(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Value obj = Value::object();
      const auto n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        // set() deduplicates, so colliding random keys stay legal.
        obj.set("k" + std::to_string(rng.below(16)), random_value(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST(SpecFuzz, RandomDocumentsRoundTripThroughDumpAndCanonical) {
  const int iters = fuzz_iters();
  sim::Rng rng(0xF022F022ULL);
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE(i);
    const Value doc = random_value(rng, 4);
    const Value re = parse(dump(doc));
    ASSERT_TRUE(re == doc) << dump(doc);

    const std::string c = canonical(doc);
    ASSERT_EQ(canonical(parse(c)), c) << dump(doc);
    ASSERT_EQ(content_hash(re), content_hash(doc));
  }
}

TEST(SpecFuzz, MutatedDocumentsNeverCrashTheParser) {
  const int iters = fuzz_iters();
  sim::Rng rng(0xBADC0FFEEULL);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE(i);
    std::string text = dump(random_value(rng, 3));

    // 1-4 random mutations: overwrite, insert, or truncate.
    const auto mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = rng.below(text.size());
      switch (rng.below(3)) {
        case 0: text[pos] = static_cast<char>(rng.below(127) + 1); break;
        case 1: text.insert(pos, 1, static_cast<char>(rng.below(94) + 33)); break;
        default: text.resize(pos); break;
      }
    }

    try {
      (void)parse(text);
      ++parsed;
    } catch (const Error& e) {
      // The error contract holds even for garbage: a position and a message.
      ASSERT_GE(e.line(), 0);
      ASSERT_FALSE(std::string(e.what()).empty());
      ++rejected;
    }
    // Anything else (std::bad_alloc, segfault, std::logic_error) fails the
    // test by escaping the harness.
  }
  // Sanity: the mutator must actually exercise both outcomes.
  EXPECT_GT(parsed + rejected, 0);
  EXPECT_GT(rejected, 0);
}

/// Every object member in `v`'s tree, as (object, member index) pairs.
void collect_members(Value& v, std::vector<std::pair<Value*, std::size_t>>& out) {
  if (v.is_object()) {
    for (std::size_t i = 0; i < v.members().size(); ++i) {
      out.emplace_back(&v, i);
      collect_members(v.members()[i].second, out);
    }
  } else if (v.is_array()) {
    for (Value& x : v.items()) collect_members(x, out);
  }
}

/// One Value-level mutation: swap a member's value for a random one of
/// another kind, rename a key, or drop a member (an object-valued one, a
/// whole section, when the pick lands on it).
void mutate_member(Value& doc, sim::Rng& rng) {
  std::vector<std::pair<Value*, std::size_t>> members;
  collect_members(doc, members);
  if (members.empty()) return;
  auto [object, index] = members[rng.below(members.size())];
  auto& [key, value] = object->members()[index];
  switch (rng.below(3)) {
    case 0: {
      Value other = random_value(rng, 2);
      while (other.kind() == value.kind()) other = random_value(rng, 2);
      value = std::move(other);
      break;
    }
    case 1:
      key = rng.chance(0.5) ? key + "_" : "k" + std::to_string(rng.below(16));
      break;
    default:
      object->members().erase(object->members().begin() +
                              static_cast<std::ptrdiff_t>(index));
      break;
  }
}

CheckpointRecord sample_record() {
  CheckpointRecord rec;
  rec.spec_hash = 0xFEEDFACECAFEBEEFULL;
  rec.entry_index = 2;
  rec.seed = 17;
  rec.label = "unit-3";
  rec.result.name = "fuzz";
  rec.result.requests_submitted = 100;
  rec.result.failures.resize(2);
  rec.result.failures[1].type = platform::FailureType::kFwa;
  rec.result.metrics.counters = {{"ftl.journal.flushes", 3}};
  rec.result.metrics.histograms = {{"lat", {1, 2}, {0, 1, 2}, 3}};
  rec.result.metrics.series = {{"volts", {{0, 5.0}, {10, 4.5}}, 0}};
  rec.result.metrics.spans = {{"mount", "run", 1, 2}};
  return rec;
}

TEST(SpecFuzz, MutatedSpecsAndRecordsLoadOrNameALocation) {
  enum class Loader { kCampaign, kTorture, kCheckpoint };
  std::vector<std::pair<Loader, Value>> inputs;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(POFI_SPEC_DIR)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());  // directory order is not stable
  for (const auto& f : files) {
    Value doc = parse_file(f.string());
    const Loader l = doc.find("torture") != nullptr ? Loader::kTorture : Loader::kCampaign;
    inputs.emplace_back(l, std::move(doc));
  }
  inputs.emplace_back(Loader::kCheckpoint, parse(canonical(to_json(sample_record()))));
  ASSERT_GT(inputs.size(), 2u);

  const int iters = fuzz_iters();
  sim::Rng rng(0xC0DEC0DEULL);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE(i);
    const auto& [loader, original] = inputs[rng.below(inputs.size())];
    Value doc = original;
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate_member(doc, rng);
    try {
      switch (loader) {
        case Loader::kCampaign: (void)load_campaign(doc); break;
        case Loader::kTorture: (void)torture::load_torture(doc); break;
        case Loader::kCheckpoint: (void)checkpoint_record_from_json(doc); break;
      }
      ++loaded;
    } catch (const Error& e) {
      // A location: the source line of the offending token, or (for a
      // synthesised value, line 0) the key it sits under.
      ASSERT_TRUE(e.line() > 0 || !e.where().empty()) << e.what() << "\n" << dump(doc);
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace pofi::spec
