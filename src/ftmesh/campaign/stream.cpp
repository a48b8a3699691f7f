#include "ftmesh/campaign/stream.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "ftmesh/campaign/checkpoint.hpp"
#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/error.hpp"
#include "ftmesh/core/experiment.hpp"
#include "ftmesh/core/thread_pool.hpp"

namespace ftmesh::campaign {

namespace {

struct CellState {
  CellPlan plan;
  std::vector<core::SimResult> results;  ///< one slot per pattern
  int filled = 0;
  bool done = false;
  bool restored = false;
  std::vector<std::string> row;  ///< set for restored cells up front
};

struct RunRef {
  std::size_t cell_pos = 0;  ///< position in the owned-cells vector
  int pattern = 0;
};

core::SimResult simulate_run(const CampaignSpec& spec, const CellPlan& plan,
                             int pattern) {
  core::SimConfig cfg = spec.base;
  cfg.algorithm = plan.algorithm;
  cfg.injection_rate = plan.rate;
  cfg.fault_count = plan.fault_count;
  cfg.seed = core::pattern_seed(spec.base.seed, plan.fault_count, pattern);
  return core::run_one(cfg);
}

}  // namespace

StreamStats run_streamed(const CampaignSpec& spec,
                         const StreamOptions& options, CellSink* sink) {
  spec.validate();
  if (options.shard.count < 1 || options.shard.index < 0 ||
      options.shard.index >= options.shard.count) {
    throw CampaignError("bad shard " + std::to_string(options.shard.index) +
                        "/" + std::to_string(options.shard.count));
  }
  const std::uint64_t hash = spec_hash(spec);
  const auto all_cells = enumerate_cells(spec);

  StreamStats stats;
  stats.cells_total = all_cells.size();

  // ---- owned cells (this shard's interleaved slice) ---------------------
  std::vector<CellState> states;
  for (const auto& plan : all_cells) {
    if (!options.shard.owns(plan.index)) continue;
    CellState state;
    state.plan = plan;
    states.push_back(std::move(state));
  }
  stats.cells_owned = states.size();

  // ---- checkpoint directory: init or resume -----------------------------
  std::unique_ptr<ResultsLog> log;
  const bool checkpointed = !options.checkpoint_dir.empty();
  if (checkpointed) {
    Manifest manifest;
    manifest.spec_hash = hash;
    manifest.cells = all_cells.size();
    manifest.shard = options.shard;
    if (options.resume) {
      const Manifest prior = read_manifest(options.checkpoint_dir);
      if (prior.spec_hash != hash) {
        throw CampaignError(
            "refusing to resume " + options.checkpoint_dir +
            ": spec hash mismatch (checkpoint was written by a different "
            "campaign specification)");
      }
      if (prior.cells != all_cells.size()) {
        throw CampaignError("refusing to resume " + options.checkpoint_dir +
                            ": cell count mismatch");
      }
      if (prior.shard.index != options.shard.index ||
          prior.shard.count != options.shard.count) {
        throw CampaignError(
            "refusing to resume " + options.checkpoint_dir + ": shard " +
            std::to_string(prior.shard.index) + "/" +
            std::to_string(prior.shard.count) +
            " in the manifest does not match the requested shard");
      }
      const auto stored =
          load_and_repair_results(options.checkpoint_dir, all_cells.size());
      // Index the owned cells so stored records can be matched in O(1).
      std::vector<std::size_t> pos_of_index(all_cells.size(), SIZE_MAX);
      for (std::size_t p = 0; p < states.size(); ++p) {
        pos_of_index[states[p].plan.index] = p;
      }
      for (const auto& cell : stored) {
        const std::size_t pos = pos_of_index[cell.index];
        if (pos == SIZE_MAX) {
          throw CampaignError("checkpoint record for cell " +
                              std::to_string(cell.index) +
                              " which this shard does not own");
        }
        CellState& state = states[pos];
        if (state.restored) continue;  // idempotent on duplicate records
        if (cell.id != state.plan.id) {
          throw CampaignError("checkpoint record id mismatch for cell " +
                              std::to_string(cell.index));
        }
        state.restored = true;
        state.done = true;
        state.row = cell.row;
      }
    } else {
      init_checkpoint_dir(options.checkpoint_dir, spec, manifest);
    }
    log = std::make_unique<ResultsLog>(options.checkpoint_dir);
  } else if (options.resume) {
    throw CampaignError("--resume requires a checkpoint directory");
  }

  // ---- run list (pending cells only, matrix order) ----------------------
  std::vector<RunRef> runs;
  std::size_t runs_total = 0;
  for (std::size_t p = 0; p < states.size(); ++p) {
    if (states[p].restored) continue;
    for (int q = 0; q < states[p].plan.patterns; ++q) {
      runs.push_back(RunRef{p, q});
    }
  }
  runs_total = runs.size();

  const std::size_t workers = std::min(
      static_cast<std::size_t>(core::resolve_threads(options.threads)),
      runs.size());
  const std::size_t window = std::max<std::size_t>(8, 4 * workers);

  // ---- shared streaming state -------------------------------------------
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t next_run = 0;
  std::size_t emit_cursor = 0;        // states[] positions fully retired
  std::size_t retained = 0;           // per-pattern results currently held
  bool failed = false;  // a worker threw: the others stop claiming runs

  // Retire every completed cell at the front of the reorder window, in
  // cell order: finalize, append to results.jsonl, hand to the sink, free
  // the runs.
  // Caller holds `mutex`.
  const auto emit_ready = [&] {
    while (emit_cursor < states.size() && states[emit_cursor].done) {
      CellState& state = states[emit_cursor];
      CellRecord record;
      record.plan = state.plan;
      record.restored = state.restored;
      if (state.restored) {
        record.row = std::move(state.row);
        stats.cells_restored += 1;
      } else {
        record.mean = core::aggregate(state.results);
        record.row =
            csv_row(state.plan.algorithm, state.plan.rate,
                    state.plan.fault_count,
                    static_cast<std::size_t>(state.plan.patterns), record.mean);
        record.runs = std::move(state.results);
        state.results = {};
        if (log) {
          log->append(StoredCell{state.plan.index, state.plan.id, record.row});
        }
        retained -= static_cast<std::size_t>(state.filled);
        stats.cells_completed += 1;
      }
      ++emit_cursor;
      if (sink != nullptr) sink->on_cell(record);
      if (options.progress) {
        options.progress(Progress{emit_cursor, states.size(),
                                  stats.runs_executed, runs_total});
      }
    }
  };

  // Emit any leading restored cells before the workers start, so a
  // resumed campaign replays its prefix even when nothing is left to run.
  {
    std::unique_lock lock(mutex);
    emit_ready();
  }

  const auto work = [&](std::unique_lock<std::mutex>& lock) {
    for (;;) {
      cv.wait(lock, [&] {
        return failed || next_run >= runs.size() ||
               runs[next_run].cell_pos < emit_cursor + window;
      });
      if (failed || next_run >= runs.size()) return;
      const RunRef run = runs[next_run++];
      CellState& cell = states[run.cell_pos];
      if (cell.results.empty()) {
        cell.results.resize(static_cast<std::size_t>(cell.plan.patterns));
      }
      lock.unlock();
      core::SimResult result = simulate_run(spec, cell.plan, run.pattern);
      lock.lock();
      if (failed) return;  // another worker failed meanwhile
      cell.results[static_cast<std::size_t>(run.pattern)] = std::move(result);
      ++cell.filled;
      ++stats.runs_executed;
      ++retained;
      stats.peak_retained_results =
          std::max(stats.peak_retained_results, retained);
      if (cell.filled == cell.plan.patterns) cell.done = true;
      if (options.progress) {
        options.progress(Progress{emit_cursor, states.size(),
                                  stats.runs_executed, runs_total});
      }
      emit_ready();
      cv.notify_all();
    }
  };
  // A worker that throws (a run, the sink or a hook) wakes its peers, which
  // return; parallel_for rethrows the first exception on the caller.
  const auto worker = [&] {
    std::unique_lock lock(mutex);
    try {
      work(lock);
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      failed = true;
      cv.notify_all();
      throw;
    }
  };
  core::parallel_for(workers, static_cast<int>(workers),
                     [&](std::size_t) { worker(); });
  return stats;
}

}  // namespace ftmesh::campaign
