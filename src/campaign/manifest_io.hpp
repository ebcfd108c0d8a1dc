// Readers for the campaign artifact documents.
//
// The writers live next to the runner (campaign.cpp / aggregate.cpp); these
// readers parse the documents back into the same structs so downstream
// consumers — the `noceas diff` campaign mode above all — operate on typed
// rows instead of re-grepping JSON.  Reading is strict: unknown schemas and
// missing keys throw noceas::Error, because a campaign diff built on a
// half-parsed manifest would mis-rank regressions silently.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/campaign/aggregate.hpp"
#include "src/campaign/campaign.hpp"
#include "src/util/json.hpp"

namespace noceas::campaign {

/// Per-run artifact paths as recorded in a manifest row (relative to the
/// manifest's directory); empty strings when the campaign ran without
/// --artifacts.
struct ArtifactPaths {
  std::string metrics;
  std::string analysis;
  std::string decisions;
};

/// A parsed "noceas.campaign.v1" manifest: the spec echo plus one outcome
/// row per run, in the original deterministic unit order.
struct Manifest {
  std::vector<std::string> apps;        ///< spec app names, spec order
  std::vector<std::uint64_t> seeds;     ///< spec seeds, spec order
  std::vector<std::string> schedulers;  ///< spec schedulers, spec order
  bool artifacts = false;
  std::vector<RunOutcome> runs;         ///< unit order
  std::vector<ArtifactPaths> paths;     ///< parallel to runs
};

/// Parses a manifest document.  Throws noceas::Error on malformed input or
/// a schema other than "noceas.campaign.v1".
[[nodiscard]] Manifest read_manifest_json(std::istream& is);

/// Parses a "noceas.campaign.aggregate.v1" document back into the Aggregate
/// the writer serialized (outliers' unit indices included).
[[nodiscard]] Aggregate read_aggregate_json(std::istream& is);

namespace detail {

// Row-level parsers shared with the shard reader (shard.cpp): a shard
// file's "run" objects are byte-for-byte manifest outcome rows, so both
// documents must parse through the same code path.

/// Parses one deterministic outcome row (a manifest "runs" element or a
/// shard row's "run" object).  Throws noceas::Error on missing keys.
[[nodiscard]] RunOutcome parse_outcome_json(json::View row);

/// Extracts the optional relative artifact paths from an outcome row.
[[nodiscard]] ArtifactPaths parse_artifact_paths(json::View row);

}  // namespace detail

}  // namespace noceas::campaign
