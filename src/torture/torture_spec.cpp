#include "torture/torture_spec.hpp"

#include "spec/codec.hpp"

namespace pofi::torture {

using spec::Error;
using spec::Value;

namespace {

void apply_torture_section(TortureConfig& cfg, const Value& v) {
  spec::for_each_member(v, "torture section", [&](const std::string& key, const Value& m) {
    if (key == "requests") {
      cfg.requests = spec::read_u64(m, key, 1);
    } else if (key == "pace_iops") {
      cfg.pace_iops = spec::read_double(m, key, 1e-3, 1e9);
    } else if (key == "window_first") {
      cfg.window_first = spec::read_u64(m, key);
    } else if (key == "window_count") {
      cfg.window_count = spec::read_u64(m, key);
    } else if (key == "stride") {
      cfg.stride = spec::read_u64(m, key, 1);
    } else if (key == "shard_points") {
      cfg.shard_points = spec::read_u64(m, key, 1);
    } else if (key == "injection") {
      const std::string s = spec::read_string(m, key);
      if (s == "immediate") cfg.injection = Injection::kImmediateCut;
      else if (s == "command") cfg.injection = Injection::kCommandOff;
      else throw Error("unknown injection mode \"" + s + "\"", m.line, m.col, key);
    } else if (key == "break_recovery") {
      cfg.break_recovery = spec::read_bool(m, key);
    } else if (key == "shrink") {
      cfg.shrink = spec::read_bool(m, key);
    } else if (key == "snapshot_interval") {
      cfg.snapshot_interval = spec::read_u64(m, key, 1);
    } else {
      return false;
    }
    return true;
  });
}

}  // namespace

TortureConfig load_torture(const Value& doc) {
  if (!doc.is_object()) throw Error("torture spec must be an object", doc.line, doc.col);
  TortureConfig cfg;
  bool saw_drive = false;
  spec::for_each_member(doc, "torture spec", [&](const std::string& key, const Value& m) {
    if (key == "name") {
      cfg.name = spec::read_string(m, key);
    } else if (key == "seed") {
      cfg.seed = spec::read_u64(m, key);
    } else if (key == "drive") {
      cfg.drive = spec::drive_from_json(m);
      saw_drive = true;
    } else if (key == "platform") {
      spec::apply_json(cfg.platform, m);
    } else if (key == "workload") {
      spec::apply_json(cfg.workload, m);
    } else if (key == "torture") {
      apply_torture_section(cfg, m);
    } else if (key == "runner") {
      spec::apply_json(cfg.runner, m);
    } else {
      return false;
    }
    return true;
  });
  if (!saw_drive) throw Error("torture spec has no \"drive\"", doc.line, doc.col, "drive");
  spec::check_workload_fits(cfg.workload, cfg.drive, doc);
  return cfg;
}

TortureConfig load_torture_file(const std::string& path) {
  return load_torture(spec::parse_file(path));
}

Value to_json(const TortureConfig& cfg) {
  Value v = Value::object();
  v.set("name", cfg.name);
  v.set("seed", cfg.seed);
  v.set("drive", spec::to_json(cfg.drive));
  v.set("platform", spec::to_json(cfg.platform));
  v.set("workload", spec::to_json(cfg.workload));
  Value t = Value::object();
  t.set("requests", cfg.requests);
  t.set("pace_iops", cfg.pace_iops);
  t.set("window_first", cfg.window_first);
  t.set("window_count", cfg.window_count);
  t.set("stride", cfg.stride);
  t.set("shard_points", cfg.shard_points);
  t.set("injection", to_string(cfg.injection));
  t.set("break_recovery", cfg.break_recovery);
  t.set("shrink", cfg.shrink);
  t.set("snapshot_interval", cfg.snapshot_interval);
  v.set("torture", std::move(t));
  v.set("runner", spec::to_json(cfg.runner));
  return v;
}

std::uint64_t torture_hash(const TortureConfig& cfg) {
  // Same convention as campaign specs: the hash covers torture *content*
  // only — the "runner" section is execution shape, bit-identical results at
  // any thread count, so it must not invalidate checkpoints. Likewise
  // snapshot_interval: checkpoint cadence changes wall-clock, never verdicts,
  // so it is stripped from the nested torture section before hashing.
  Value doc = to_json(cfg);
  Value hashed = Value::object();
  spec::for_each_member(doc, "torture spec", [&](const std::string& key, const Value& m) {
    if (key == "runner") return true;
    if (key == "torture") {
      Value t = Value::object();
      spec::for_each_member(m, "torture section", [&](const std::string& tk, const Value& tm) {
        if (tk != "snapshot_interval") t.set(tk, tm);
        return true;
      });
      hashed.set(key, std::move(t));
      return true;
    }
    hashed.set(key, m);
    return true;
  });
  return spec::content_hash(hashed);
}

}  // namespace pofi::torture
