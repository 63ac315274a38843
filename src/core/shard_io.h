// Shard-file I/O: the on-disk handoff between `ednsm_measure --shard k/N`
// worker processes and the `ednsm_merge` tool.
//
// A shard file is a self-describing JSON document:
//
//   {
//     "magic": "ednsm-shard",
//     "version": 1,
//     "spec": { ...full campaign spec (not the slice)... },
//     "spec_fingerprint": "<16-hex-digit FNV-1a of the spec's canonical JSON>",
//     "slice": {"k": K, "n": N},
//     "total_shards": M,                  // expand_spec(spec).size()
//     "has_trace": bool, "has_metrics": bool,
//     "outcomes": [
//       {"index": I, "vantage": "...", "seed": "<16 hex>",
//        "records": [...], "pings": [...],
//        "trace": {...}?, "metrics": {...}?}, ...
//     ]
//   }
//
// Seeds and fingerprints are hex strings because the JSON layer stores
// numbers as doubles, which cannot hold a full 64-bit value exactly.
//
// load() rejects anything that could silently corrupt a merge: truncated or
// non-JSON input, a magic/version mismatch, a fingerprint that does not match
// the embedded spec, a slice inconsistent with the spec's plan list, and
// outcomes whose (index, vantage, seed) differ from what expand_spec derives
// — so a merge can only ever combine shards of the same campaign.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"

namespace ednsm::core {

struct ShardFile {
  static constexpr std::string_view kMagic = "ednsm-shard";
  static constexpr int kVersion = 1;

  MeasurementSpec spec;          // the full campaign spec
  ShardSlice slice;              // which k/N slice this file holds
  std::size_t total_shards = 0;  // plan count for the full spec
  bool has_trace = false;
  bool has_metrics = false;
  std::vector<ShardOutcome> outcomes;  // this slice's plans, in index order

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<ShardFile> from_json(const util::Json& j);

  // Structural validation against the spec's derived plan list (see header
  // comment). from_json calls this; it is public so tests can probe it.
  [[nodiscard]] Result<void> validate() const;

  // Serialize and write crash-safely (util::write_file_atomic).
  [[nodiscard]] Result<void> write(const std::string& path) const;

  // Read + parse + validate.
  [[nodiscard]] static Result<ShardFile> load(const std::string& path);
};

}  // namespace ednsm::core
