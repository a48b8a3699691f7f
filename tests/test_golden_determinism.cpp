// Golden determinism corpus.
//
// The active-set scheduler (router/network.hpp, ScanMode::Active) must be
// bit-exact against the exhaustive reference scan (ScanMode::Full): the
// counter-based arbitration hash makes the shared RNG stream independent of
// which idle routers are skipped, so the full JSON report — every latency
// percentile, throughput figure and reliability counter — is byte-identical.
// The same holds for the route-candidate cache (pure memoization, sound by
// the route_state_key contract), for message slot recycling (external ids
// stay stable and id-ordered even as slots are reused), and across repeated
// runs (determinism in (config, seed)).
//
// The matrix deliberately includes a dynamic fault schedule so the
// cache-invalidation and active-set-rebuild paths are exercised, not just
// the steady state.
//
// The sharded kernel adds two more axes: the tile count (the mesh cut into
// rectangular shards with deferred boundary commits) and the step thread
// count (tiles dispatched on the shared pool).  Both must be invisible in
// reports and traces; the multi-threaded cases double as the TSan target
// for the parallel step path.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "golden_corpus.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::golden::base_config;
using ftmesh::golden::kScenarios;
using ftmesh::golden::report_for;
using ftmesh::golden::trace_for;

const char* const kAlgorithms[] = {"Duato", "Boura-FT", "NHop"};

class GoldenDeterminism
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  SimConfig config() const {
    auto cfg = base_config(kAlgorithms[std::get<0>(GetParam())]);
    kScenarios[std::get<1>(GetParam())].apply(cfg);
    return cfg;
  }
};

TEST_P(GoldenDeterminism, FullAndActiveScansAreByteIdentical) {
  auto cfg = config();
  cfg.scan_mode = "active";
  const std::string active = report_for(cfg);
  cfg.scan_mode = "full";
  const std::string full = report_for(cfg);
  ASSERT_EQ(active, full);
}

TEST_P(GoldenDeterminism, RepeatedRunsAreByteIdentical) {
  const auto cfg = config();
  ASSERT_EQ(report_for(cfg), report_for(cfg));
}

TEST_P(GoldenDeterminism, RouteCacheDoesNotChangeTheReport) {
  auto cfg = config();
  cfg.route_cache = true;
  const std::string cached = report_for(cfg);
  cfg.route_cache = false;
  const std::string uncached = report_for(cfg);
  ASSERT_EQ(cached, uncached);
}

TEST_P(GoldenDeterminism, RecyclingDoesNotChangeTheReport) {
  // Slot recycling changes the storage model (message slots are reused the
  // cycle the tail ejects), but every externally visible id is the stable
  // monotonic MessageId and the stats pipeline accumulates retired messages
  // in id order — so the full JSON report must not move by a byte.
  auto cfg = config();
  cfg.recycle_messages = true;
  const std::string recycled = report_for(cfg);
  cfg.recycle_messages = false;
  const std::string appendonly = report_for(cfg);
  ASSERT_EQ(recycled, appendonly);
}

TEST_P(GoldenDeterminism, TracesAreByteIdenticalAcrossRecyclingModes) {
  // Trace events carry stable ids, never slot indices, and fault victims
  // are purged in id order regardless of slot assignment: the whole JSONL
  // stream must match, including the dynamic-schedule purge/retransmit runs.
  auto cfg = config();
  cfg.recycle_messages = true;
  const std::string recycled = trace_for(cfg);
  cfg.recycle_messages = false;
  const std::string appendonly = trace_for(cfg);
  ASSERT_FALSE(recycled.empty());
  ASSERT_EQ(recycled, appendonly);
}

TEST_P(GoldenDeterminism, TracesAreByteIdenticalAcrossScanModes) {
  // Events are only emitted from phases that visit work in the same order
  // in both modes (trace/trace_event.hpp), so the whole JSONL stream — not
  // just the end-of-run aggregates — must match byte for byte.
  auto cfg = config();
  cfg.scan_mode = "active";
  const std::string active = trace_for(cfg);
  cfg.scan_mode = "full";
  const std::string full = trace_for(cfg);
  ASSERT_FALSE(active.empty());
  ASSERT_EQ(active, full);
}

TEST_P(GoldenDeterminism, FullScanWithoutCacheMatchesActiveWithCache) {
  // The two extreme corners of the configuration square.
  auto cfg = config();
  cfg.scan_mode = "active";
  cfg.route_cache = true;
  const std::string fast = report_for(cfg);
  cfg.scan_mode = "full";
  cfg.route_cache = false;
  const std::string reference = report_for(cfg);
  ASSERT_EQ(fast, reference);
}

TEST_P(GoldenDeterminism, ShardedReportsAreByteIdentical) {
  // The sharded kernel (router/network.hpp, NetworkConfig::tiles): every
  // tile count and thread count must reproduce the single-tile report byte
  // for byte — cross-tile effects are deferred to an ordered commit and
  // every arbitration draw is a counter hash of (seed, cycle, node), so
  // neither the tiling nor the thread schedule can leak into results.  The
  // dynamic-schedule scenario covers the post-reconfiguration rebuild
  // (worklists must land on their owning tiles again).
  auto cfg = config();
  cfg.tiles = 1;
  cfg.step_threads = 1;
  const std::string single = report_for(cfg);
  for (const int tiles : {2, 4}) {
    for (const int threads : {1, 4}) {
      cfg.tiles = tiles;
      cfg.step_threads = threads;
      ASSERT_EQ(single, report_for(cfg))
          << "tiles=" << tiles << " threads=" << threads;
    }
  }
}

TEST_P(GoldenDeterminism, ShardedTracesAreByteIdentical) {
  // A traced step runs the same tile-parallel drivers as an untraced one:
  // each tile buffers its events and the network merges the buffers in
  // node order after every phase.  The JSONL stream must match the
  // single-tile run event for event at every tile and thread count; the
  // threaded cases are the TSan target for the parallel tracing path.
  auto cfg = config();
  cfg.tiles = 1;
  cfg.step_threads = 1;
  const std::string single = trace_for(cfg);
  ASSERT_FALSE(single.empty());
  for (const int tiles : {2, 4}) {
    for (const int threads : {1, 4}) {
      cfg.tiles = tiles;
      cfg.step_threads = threads;
      ASSERT_EQ(single, trace_for(cfg))
          << "tiles=" << tiles << " threads=" << threads;
    }
  }
}

TEST_P(GoldenDeterminism, ShardedAllocationReportsAreByteIdentical) {
  // The sharded slot allocator (per-tile free lists with bounded global
  // spillover) only changes which slot backs a message, never the message
  // ids, the creation order or any arbitration draw — so the report must
  // not move by a byte across the full allocator square: sharded/serial
  // allocation x recycling on/off x tiling/threading.  The dynamic
  // scenarios run the purge/retransmit churn through the per-tile lists.
  auto cfg = config();
  cfg.tiles = 1;
  cfg.step_threads = 1;
  cfg.shard_alloc = true;
  const std::string reference = report_for(cfg);
  for (const bool shard : {true, false}) {
    for (const bool recycle : {true, false}) {
      for (const auto& [tiles, threads] : {std::pair{2, 1}, std::pair{4, 4}}) {
        cfg.shard_alloc = shard;
        cfg.recycle_messages = recycle;
        cfg.tiles = tiles;
        cfg.step_threads = threads;
        ASSERT_EQ(reference, report_for(cfg))
            << "shard_alloc=" << shard << " recycle=" << recycle
            << " tiles=" << tiles << " threads=" << threads;
      }
    }
  }
}

TEST_P(GoldenDeterminism, ShardedAllocationTracesAreByteIdentical) {
  // Same square, full event stream: Create/Inject/Alloc/Retire events carry
  // stable ids and Create events are emitted serially in id order before
  // the tiles materialise the slots, so slot provenance (tile list,
  // spillover pool, fresh append) must be invisible in the JSONL trace too.
  // One step thread: threading is ShardedTracesAreByteIdentical's axis, and
  // on an 8x8 mesh dispatch costs more than the tiles save.
  auto cfg = config();
  cfg.tiles = 1;
  cfg.shard_alloc = true;
  const std::string reference = trace_for(cfg);
  ASSERT_FALSE(reference.empty());
  for (const bool shard : {true, false}) {
    for (const bool recycle : {true, false}) {
      cfg.shard_alloc = shard;
      cfg.recycle_messages = recycle;
      cfg.tiles = 4;
      cfg.step_threads = 1;
      ASSERT_EQ(reference, trace_for(cfg))
          << "shard_alloc=" << shard << " recycle=" << recycle;
    }
  }
}

TEST_P(GoldenDeterminism, ShardedFullScanMatchesSingleTileActive) {
  // Cross-axis corner: many tiles + exhaustive scan + threads against the
  // plain single-tile active-scan kernel.
  auto cfg = config();
  cfg.scan_mode = "active";
  cfg.tiles = 1;
  cfg.step_threads = 1;
  const std::string reference = report_for(cfg);
  cfg.scan_mode = "full";
  cfg.tiles = 4;
  cfg.step_threads = 4;
  ASSERT_EQ(reference, report_for(cfg));
}

std::string param_name(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  std::string s = std::string(kAlgorithms[std::get<0>(info.param)]) + "_" +
                  kScenarios[std::get<1>(info.param)].name;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenDeterminism,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 4)),
                         param_name);

// The per-node input-VC ready masks span ceil(5 * total_vcs / 64) words;
// the corpus above runs the default 24 VCs (two words).  One algorithm on
// the dynamic-schedule scenario at 8 VCs (one word) and 32 VCs (three
// words) pins the Active walks against the exhaustive scan at the other
// word counts, reports and traces both.
class GoldenMaskWidths : public ::testing::TestWithParam<int> {
 protected:
  SimConfig config() const {
    auto cfg = base_config("Duato");
    cfg.total_vcs = GetParam();
    kScenarios[2].apply(cfg);  // dynamic-schedule
    return cfg;
  }
};

TEST_P(GoldenMaskWidths, FullAndActiveReportsAndTracesAreByteIdentical) {
  auto cfg = config();
  cfg.scan_mode = "active";
  const std::string active_report = report_for(cfg);
  const std::string active_trace = trace_for(cfg);
  cfg.scan_mode = "full";
  ASSERT_EQ(active_report, report_for(cfg));
  ASSERT_EQ(active_trace, trace_for(cfg));
}

std::string vcs_name(const ::testing::TestParamInfo<int>& info) {
  return "vcs" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenMaskWidths, ::testing::Values(8, 32),
                         vcs_name);

}  // namespace
