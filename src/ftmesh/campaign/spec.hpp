#pragma once
// The campaign specification and its deterministic cell address space.
//
// A campaign is the experiment matrix behind every figure of the paper:
// (algorithms x injection rates x fault levels), each cell averaged over
// `patterns` random fault sets.  This header gives every cell a stable
// identity so that any subset of cells — one shard of a fleet run, the
// remainder after a crash — is independently reproducible:
//
//  * the matrix enumeration order (algorithm-major, then rate, then fault
//    count) assigns each cell a dense `index`, which names its CSV row;
//  * cell_id() content-addresses the cell through the same counter-hash
//    family as pattern_seed(), so the id depends only on
//    (base seed, algorithm, rate, fault count) — reshaping the matrix
//    (adding a rate, dropping an algorithm) never changes surviving ids;
//  * the per-pattern simulation seed remains pattern_seed(base seed,
//    fault count, pattern), byte-compatible with the legacy in-memory
//    runner.
//
// spec_hash() fingerprints the whole spec (base config + dimensions);
// checkpoints and shard manifests embed it so resume/merge can refuse to
// mix results from different experiments.

#include <cstdint>
#include <string>
#include <vector>

#include "ftmesh/core/config.hpp"
#include "ftmesh/report/cli.hpp"

namespace ftmesh::campaign {

struct CampaignSpec {
  core::SimConfig base;
  /// Dimensions; an empty vector means "use the base config's value".
  std::vector<std::string> algorithms;
  std::vector<double> rates;
  std::vector<int> fault_counts;
  int patterns = 1;  ///< random fault sets averaged per cell
  int threads = 0;   ///< worker parallelism (<= 0: all cores)

  /// Throws CampaignSpecError (a std::invalid_argument) on unknown or
  /// duplicate algorithms, NaN/negative rates, patterns <= 0, or fault
  /// counts outside the mesh's capacity.
  void validate() const;

  /// The effective dimension lists after the empty-means-base fallback.
  [[nodiscard]] std::vector<std::string> effective_algorithms() const;
  [[nodiscard]] std::vector<double> effective_rates() const;
  [[nodiscard]] std::vector<int> effective_fault_counts() const;
};

/// The campaign of a command line (`ftmesh campaign`): `base` plus the
/// matrix flags --algorithms (comma list of names), --rates and
/// --fault-counts (comma lists; empty items skipped), --patterns and
/// --threads.  Each number parses as one whole token of its field's type,
/// so a fault count or pattern count past int range is refused rather
/// than wrapped.  Throws CampaignSpecError (code bad_value) naming the
/// flag; does not validate.
CampaignSpec spec_from_cli(const report::Cli& cli, core::SimConfig base);

/// One planned cell of the matrix.
struct CellPlan {
  std::size_t index = 0;   ///< dense enumeration order == CSV row order
  std::uint64_t id = 0;    ///< content-addressed, stable across reshapes
  std::string algorithm;
  double rate = 0.0;
  int fault_count = 0;
  /// Fault-free cells need no pattern averaging, so this is 1 when
  /// fault_count == 0 and spec.patterns otherwise (legacy-compatible).
  int patterns = 1;
};

/// The full matrix in deterministic order (algorithm-major, then rate,
/// then fault count).  Does not validate; call spec.validate() first.
std::vector<CellPlan> enumerate_cells(const CampaignSpec& spec);

/// Stable 64-bit cell address: a counter-hash chain over
/// (base seed, FNV-1a(algorithm), bit pattern of rate, fault count).
std::uint64_t cell_id(std::uint64_t base_seed, const std::string& algorithm,
                      double rate, int fault_count);

/// Canonical text form of the spec (base config plus dimension lists with
/// exact bit-level rate encoding).  This is what spec_hash() digests and
/// what checkpoint directories store for human inspection.
std::string serialize_spec(const CampaignSpec& spec);

/// FNV-1a over serialize_spec(), finalised through the counter hash.
/// `threads` is deliberately excluded: resuming with a different worker
/// count is the same experiment.
std::uint64_t spec_hash(const CampaignSpec& spec);

/// Deterministic partition of the cell space: shard i of N owns every cell
/// whose index is congruent to i mod N, so shards interleave across the
/// matrix and no shard ends up with all the saturated cells.
struct Shard {
  int index = 0;
  int count = 1;

  [[nodiscard]] bool owns(std::size_t cell_index) const noexcept {
    return count <= 1 ||
           cell_index % static_cast<std::size_t>(count) ==
               static_cast<std::size_t>(index);
  }
};

/// Parses "i/N" (0 <= i < N).  Throws CampaignError on malformed input.
Shard parse_shard(const std::string& text);

}  // namespace ftmesh::campaign
