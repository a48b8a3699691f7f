// Tests for SimConfig text (de)serialisation.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "ftmesh/core/config_io.hpp"

namespace {

using ftmesh::core::load_config;
using ftmesh::core::save_config;
using ftmesh::core::SimConfig;

TEST(ConfigIo, RoundTripPreservesEveryField) {
  SimConfig cfg;
  cfg.width = 12;
  cfg.height = 8;
  cfg.algorithm = "Duato-Nbc";
  cfg.total_vcs = 20;
  cfg.misroute_limit = 4;
  cfg.xy_escape = false;
  cfg.selection = ftmesh::routing::SelectionPolicy::LeastCongested;
  cfg.buffer_depth = 3;
  cfg.injection_vcs = 2;
  cfg.traffic = "transpose";
  cfg.injection_rate = -1.0;
  cfg.message_length = 64;
  cfg.fault_count = 7;
  cfg.fault_blocks = {{1, 2, 3, 4}, {6, 6, 6, 6}};
  cfg.warmup_cycles = 111;
  cfg.total_cycles = 999;
  cfg.seed = 0xdeadbeef;
  cfg.watchdog_patience = 4321;
  cfg.collect_vc_usage = true;
  cfg.collect_traffic_map = true;
  cfg.metrics_interval = 250;

  std::stringstream buffer;
  save_config(buffer, cfg);
  const SimConfig loaded = load_config(buffer);

  EXPECT_EQ(loaded.width, cfg.width);
  EXPECT_EQ(loaded.height, cfg.height);
  EXPECT_EQ(loaded.algorithm, cfg.algorithm);
  EXPECT_EQ(loaded.total_vcs, cfg.total_vcs);
  EXPECT_EQ(loaded.misroute_limit, cfg.misroute_limit);
  EXPECT_EQ(loaded.xy_escape, cfg.xy_escape);
  EXPECT_EQ(loaded.selection, cfg.selection);
  EXPECT_EQ(loaded.buffer_depth, cfg.buffer_depth);
  EXPECT_EQ(loaded.injection_vcs, cfg.injection_vcs);
  EXPECT_EQ(loaded.traffic, cfg.traffic);
  EXPECT_DOUBLE_EQ(loaded.injection_rate, cfg.injection_rate);
  EXPECT_EQ(loaded.message_length, cfg.message_length);
  EXPECT_EQ(loaded.fault_count, cfg.fault_count);
  ASSERT_EQ(loaded.fault_blocks.size(), 2u);
  EXPECT_EQ(loaded.fault_blocks[0], cfg.fault_blocks[0]);
  EXPECT_EQ(loaded.fault_blocks[1], cfg.fault_blocks[1]);
  EXPECT_EQ(loaded.warmup_cycles, cfg.warmup_cycles);
  EXPECT_EQ(loaded.total_cycles, cfg.total_cycles);
  EXPECT_EQ(loaded.seed, cfg.seed);
  EXPECT_EQ(loaded.watchdog_patience, cfg.watchdog_patience);
  EXPECT_EQ(loaded.collect_vc_usage, cfg.collect_vc_usage);
  EXPECT_EQ(loaded.collect_traffic_map, cfg.collect_traffic_map);
  EXPECT_EQ(loaded.metrics_interval, cfg.metrics_interval);
  EXPECT_EQ(loaded, cfg);
}

TEST(ConfigIo, RatesRoundTripBitExactly) {
  // A rate past six significant digits must come back as the same double
  // (it once saved as 0.00123457, and the replay simulated another rate);
  // a rate that six digits already carry keeps its old text, so existing
  // config files and campaign spec hashes stay put.
  const std::pair<double, std::string> cases[] = {
      {0.00123456789, "injection_rate = 0.00123456789\n"},
      {0.1 + 0.2, "injection_rate = 0.30000000000000004\n"},
      {0.002, "injection_rate = 0.002\n"},
      {-1.0, "injection_rate = -1\n"},
      {1e-7, "injection_rate = 1e-07\n"},
      {std::numeric_limits<double>::denorm_min(), ""},
  };
  for (const auto& [rate, line] : cases) {
    SCOPED_TRACE(line);
    SimConfig cfg;
    cfg.injection_rate = rate;
    std::stringstream buffer;
    save_config(buffer, cfg);
    if (!line.empty()) {
      EXPECT_NE(buffer.str().find(line), std::string::npos) << buffer.str();
    }
    const SimConfig loaded = load_config(buffer);
    EXPECT_EQ(loaded.injection_rate, rate);  // bit-exact, not DOUBLE_EQ
    EXPECT_EQ(loaded, cfg);
  }
}

TEST(ConfigIo, RetiredKernelSwitchesLoadOnlyAtTheirDefaults) {
  // The full scan, the uncached routing path, append-only message storage
  // and every slot allocator but the one pool were removed from the kernel.
  // Configs saved before that still carry their keys, so the keys load,
  // but validate() accepts only the defaults and names the removal
  // otherwise.
  std::stringstream saved(
      "scan_mode = active\nroute_cache = 1\nrecycle_messages = 1\n"
      "shard_alloc = 1\n");
  EXPECT_NO_THROW(load_config(saved).validate());
  const std::pair<const char*, const char*> retired[] = {
      {"scan_mode = full\n", "full reference scan was removed"},
      {"route_cache = 0\n", "uncached routing path was removed"},
      {"recycle_messages = 0\n", "append-only message storage was removed"},
      {"shard_alloc = 0\n", "message slots come from one pool"}};
  for (const auto& [line, why] : retired) {
    std::stringstream in(line);
    const auto cfg = load_config(in);
    try {
      cfg.validate();
      ADD_FAILURE() << line << " validated";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, ZeroRateWarnsAboutLegacySaturationConvention) {
  // Pre-rework configs used injection_rate = 0 to mean "saturated"; today
  // it means "idle".  Loading such a config must validate (it is legal) but
  // flag the ambiguity.
  std::stringstream in("injection_rate = 0\n");
  const auto cfg = load_config(in);
  EXPECT_NO_THROW(cfg.validate());
  const auto warnings = cfg.warnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("idle"), std::string::npos);
  EXPECT_NE(warnings[0].find("negative"), std::string::npos);

  // The modern spellings stay silent.
  SimConfig quiet;
  quiet.injection_rate = -1.0;  // saturated
  EXPECT_TRUE(quiet.warnings().empty());
  quiet.injection_rate = 0.004;  // Poisson
  EXPECT_TRUE(quiet.warnings().empty());
}

TEST(ConfigIo, RateAboveInjectionCapacityIsRejected) {
  // A source injects at most injection_vcs messages per cycle; a larger or
  // non-finite Poisson rate would stall the arrival clock (its exponential
  // gaps round to 0), so validate() refuses it.  Negative rates still mean
  // saturated sources.
  SimConfig cfg;
  cfg.injection_vcs = 2;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1e308,
                           2.5}) {
    cfg.injection_rate = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << bad;
  }
  for (const double good : {2.0, 0.5, 0.0, -1.0, -1e308}) {
    cfg.injection_rate = good;
    EXPECT_NO_THROW(cfg.validate()) << good;
  }

  // from_chars accepts "inf"; the config file's value must still fail
  // validation rather than hang the run.
  std::stringstream in("injection_rate = inf\n");
  const auto loaded = load_config(in);
  EXPECT_THROW(loaded.validate(), std::invalid_argument);
}

TEST(ConfigIo, BufferDepthAbove65535IsRejected) {
  // Input buffers index their flits in 16 bits; a deeper buffer once wrapped
  // the ring's capacity silently (70000 read back as 4464), so validate()
  // refuses it, from a flag as from the config key.
  SimConfig cfg;
  cfg.buffer_depth = 65535;
  EXPECT_NO_THROW(cfg.validate());
  cfg.buffer_depth = 65536;
  try {
    cfg.validate();
    FAIL() << "buffer_depth 65536 validated";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "buffer_depth must be <= 65535");
  }
  std::stringstream in("buffer_depth = 70000\n");
  const auto loaded = load_config(in);
  EXPECT_EQ(loaded.buffer_depth, 70000);
  EXPECT_THROW(loaded.validate(), std::invalid_argument);
}

TEST(ConfigIo, CommentsAndBlanksIgnored) {
  std::stringstream in(
      "# full-line comment\n"
      "\n"
      "width = 6   # trailing comment\n"
      "height = 7\n");
  const auto cfg = load_config(in);
  EXPECT_EQ(cfg.width, 6);
  EXPECT_EQ(cfg.height, 7);
  EXPECT_EQ(cfg.algorithm, SimConfig{}.algorithm);  // untouched default
}

TEST(ConfigIo, UnknownKeyFailsWithLineNumber) {
  std::stringstream in("width = 6\nbogus_key = 1\n");
  try {
    load_config(in);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(ConfigIo, BadNumbersFailWithLineAndKey) {
  // Every number must be one whole token of the key's type: no trailing
  // junk, and no sign on unsigned keys (a "-1" message length used to wrap
  // to 4294967295 and silently deliver nothing).  Each failure names the
  // line and the key.
  const struct {
    const char* text;
    const char* key;
  } cases[] = {
      {"width = abc", "width"},
      {"width = 12abc", "width"},
      {"width = 99999999999", "width"},
      {"message_length = -1", "message_length"},
      {"seed = -5", "seed"},
      {"seed = +5", "seed"},
      {"total_cycles = 1e6", "total_cycles"},
      {"injection_rate = 0.5x", "injection_rate"},
      {"route_cache = 1x", "route_cache"},
      {"fault_blocks = 1,2,3,4x", "fault_blocks"},
      {"selection = bogus", "selection"},
  };
  for (const auto& c : cases) {
    std::stringstream in(std::string("height = 6\n") + c.text + "\n");
    try {
      load_config(in);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("config line 2: bad value for " + std::string(c.key)),
                std::string::npos)
          << what;
    }
  }
}

TEST(ConfigIo, SignedAndFractionalValuesStillParse) {
  std::stringstream in(
      "misroute_limit = -3\ninjection_rate = -1\nseed = 18446744073709551615\n"
      "message_length = 4294967295\ninjection_rate = 1e-05\n");
  const auto cfg = load_config(in);
  EXPECT_EQ(cfg.misroute_limit, -3);
  EXPECT_EQ(cfg.seed, 18446744073709551615ull);
  EXPECT_EQ(cfg.message_length, 4294967295u);
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 1e-05);
}

TEST(ConfigIo, MissingEqualsFails) {
  std::stringstream in("width 6\n");
  EXPECT_THROW(load_config(in), std::invalid_argument);
}

TEST(ConfigIo, MalformedBlockFails) {
  std::stringstream in("fault_blocks = 1,2,3\n");
  EXPECT_THROW(load_config(in), std::invalid_argument);
}

TEST(ConfigIo, EmptyBlocksListIsEmpty) {
  std::stringstream in("fault_blocks = \n");
  const auto cfg = load_config(in);
  EXPECT_TRUE(cfg.fault_blocks.empty());
}

TEST(ConfigIo, FileRoundTrip) {
  SimConfig cfg;
  cfg.algorithm = "Nbc";
  cfg.seed = 77;
  const std::string path = "/tmp/ftmesh_config_io_test.cfg";
  ftmesh::core::save_config_file(path, cfg);
  const auto loaded = ftmesh::core::load_config_file(path);
  EXPECT_EQ(loaded.algorithm, "Nbc");
  EXPECT_EQ(loaded.seed, 77u);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(ftmesh::core::load_config_file("/nonexistent/x.cfg"),
               std::runtime_error);
}

TEST(ConfigIo, LoadedConfigValidates) {
  std::stringstream in("algorithm = Duato\nfault_count = 5\n");
  const auto cfg = load_config(in);
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
