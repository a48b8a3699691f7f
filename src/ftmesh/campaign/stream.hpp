#pragma once
// Streaming campaign engine: executes the experiment matrix cell by cell
// with flat memory, optional checkpointing, deterministic sharding and a
// pluggable per-cell sink.
//
// Execution model
// ---------------
// Runs (one per fault pattern of each owned cell) are claimed from a
// shared cursor in matrix order by self-scheduling workers (one
// core::parallel_for index each).  Per-pattern SimResults accumulate into
// their cell; when a cell's last pattern lands, completed cells retire *in
// cell order* (out-of-order completions wait in a small reorder buffer)
// and are handed to the sink, after which their per-pattern results are
// freed.  A claim window keeps any worker from running more than
// max(8, 4 x workers) cells ahead of the retirement cursor, so the peak
// number of retained per-pattern results is O(threads x patterns)
// regardless of campaign size — the property the BM_CampaignStreamed
// counter gate pins.
//
// Determinism: every run's randomness is a pure function of
// (config, pattern_seed), and retirement order is cell order, so the sink
// sees byte-identical records for any thread count, shard split or
// resume/restart history.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftmesh/campaign/progress.hpp"
#include "ftmesh/campaign/spec.hpp"
#include "ftmesh/core/simulator.hpp"

namespace ftmesh::campaign {

/// One retired cell, delivered to the sink in cell-index order.
struct CellRecord {
  CellPlan plan;
  /// CSV cells in csv_columns() order; always populated (for restored
  /// cells this is the string replay from the checkpoint).
  std::vector<std::string> row;
  /// Aggregate over the patterns.  Default-constructed when `restored`.
  core::SimResult mean;
  /// Per-pattern results; empty when `restored`.  Valid only for the
  /// duration of the callback — the engine frees them afterwards, which
  /// is what keeps memory flat.
  std::vector<core::SimResult> runs;
  /// True when replayed from a checkpoint instead of simulated now.
  bool restored = false;
};

class CellSink {
 public:
  virtual ~CellSink() = default;
  /// Called in cell-index order, serialised (never concurrently).  An
  /// exception aborts the campaign (already-checkpointed cells survive).
  virtual void on_cell(const CellRecord& record) = 0;
};

struct StreamOptions {
  int threads = 0;  ///< <= 0: all cores
  Shard shard;
  /// Non-empty enables checkpointing into this directory.
  std::string checkpoint_dir;
  /// Continue a prior run of `checkpoint_dir`: verify the spec hash,
  /// reload completed cells (replaying them to the sink as `restored`)
  /// and execute only the remainder.
  bool resume = false;
  /// Optional progress hook, called under the engine lock after every run
  /// retirement and cell emission.
  std::function<void(const Progress&)> progress;
};

struct StreamStats {
  std::size_t cells_total = 0;    ///< whole matrix, all shards
  std::size_t cells_owned = 0;    ///< this shard's share
  std::size_t cells_completed = 0;  ///< simulated this invocation
  std::size_t cells_restored = 0;   ///< replayed from the checkpoint
  std::size_t runs_executed = 0;
  /// High-water mark of simultaneously retained per-pattern SimResults.
  std::size_t peak_retained_results = 0;
};

/// Runs the campaign.  Validates the spec, honours shard/resume options,
/// and streams every owned cell (restored first-in-order, then simulated)
/// to `sink` (which may be nullptr when only the checkpoint matters).
/// Throws CampaignSpecError / CampaignError; on error mid-run the
/// checkpoint directory retains every cell retired so far.
StreamStats run_streamed(const CampaignSpec& spec, const StreamOptions& options,
                         CellSink* sink);

}  // namespace ftmesh::campaign
