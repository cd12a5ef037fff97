#include "torture/torture_spec.hpp"

#include "spec/codec.hpp"
#include "spec/fields.hpp"

namespace pofi::torture {

using spec::Error;
using spec::Value;

namespace {

using spec::fields::Choice;
using spec::fields::Flag;
using spec::fields::Integer;
using spec::fields::Nested;
using spec::fields::Real;
using spec::fields::Text;

/// "drive": the preset form or a full SsdConfig (spec::drive_from_json).
struct DriveField {
  std::string_view key;
  void read(TortureConfig& cfg, const std::string&, const Value& v) const {
    cfg.drive = spec::drive_from_json(v);
  }
  void write(const TortureConfig& cfg, Value& out) const {
    out.set(key, spec::to_json(cfg.drive));
  }
};

constexpr spec::fields::List kSection{
    "torture section",
    Integer{"requests", &TortureConfig::requests, 1},
    Real{"pace_iops", &TortureConfig::pace_iops, 1e-3, 1e9},
    Integer{"window_first", &TortureConfig::window_first},
    Integer{"window_count", &TortureConfig::window_count},
    Integer{"stride", &TortureConfig::stride, 1},
    Integer{"shard_points", &TortureConfig::shard_points, 1},
    Choice{"injection", &TortureConfig::injection},
    Flag{"break_recovery", &TortureConfig::break_recovery},
    Flag{"shrink", &TortureConfig::shrink},
    Integer{"snapshot_interval", &TortureConfig::snapshot_interval, 1}};

/// "torture": a nested object whose keys are TortureConfig's own members.
struct SectionField {
  std::string_view key;
  void read(TortureConfig& cfg, const std::string&, const Value& v) const {
    kSection.read(cfg, v);
  }
  void write(const TortureConfig& cfg, Value& out) const { out.set(key, kSection.write(cfg)); }
};

/// "drive" is required; load_torture checks for it after the read.
constexpr spec::fields::List kTorture{"torture spec",
                                      Text{"name", &TortureConfig::name},
                                      Integer{"seed", &TortureConfig::seed},
                                      DriveField{"drive"},
                                      Nested{"platform", &TortureConfig::platform},
                                      Nested{"workload", &TortureConfig::workload},
                                      SectionField{"torture"},
                                      Nested{"runner", &TortureConfig::runner}};

}  // namespace

TortureConfig load_torture(const Value& doc) {
  if (!doc.is_object()) throw Error("torture spec must be an object", doc.line, doc.col);
  TortureConfig cfg;
  kTorture.read(cfg, doc);
  if (doc.find("drive") == nullptr) {
    throw Error("torture spec has no \"drive\"", doc.line, doc.col, "drive");
  }
  spec::check_workload_fits(cfg.workload, cfg.drive, doc);
  return cfg;
}

TortureConfig load_torture_file(const std::string& path) {
  return load_torture(spec::parse_file(path));
}

Value to_json(const TortureConfig& cfg) { return kTorture.write(cfg); }

std::uint64_t torture_hash(const TortureConfig& cfg) {
  // Same convention as campaign specs: the hash covers torture *content*
  // only — the "runner" section is execution shape, bit-identical results at
  // any thread count, so it must not invalidate checkpoints. Likewise
  // snapshot_interval: checkpoint cadence changes wall-clock, never verdicts,
  // so it is stripped from the nested torture section before hashing.
  Value doc = to_json(cfg);
  spec::fields::erase(doc, "runner");
  spec::fields::erase(*doc.find("torture"), "snapshot_interval");
  return spec::content_hash(doc);
}

}  // namespace pofi::torture
