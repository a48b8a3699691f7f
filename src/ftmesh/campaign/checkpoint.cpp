#include "ftmesh/campaign/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/error.hpp"
#include "ftmesh/core/config_io.hpp"
#include "ftmesh/report/json.hpp"

namespace ftmesh::campaign {

namespace fs = std::filesystem;

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t parse_hex64(const std::string& text) {
  if (text.rfind("0x", 0) != 0) throw CampaignError("bad hex value " + text);
  try {
    return core::parse_number<std::uint64_t>(text.substr(2), 16);
  } catch (const std::exception&) {
    throw CampaignError("bad hex value " + text);
  }
}

struct Field {
  std::string key;
  std::string value;
  bool quoted = false;  ///< written as a string, not a raw token
};

/// Minimal parser for our own flat JSONL records: `{"k":v,...}` where v is
/// a quoted string (escapes limited to \" and \\, all we ever emit for
/// algorithm names) or a raw token.  Raw tokens are kept verbatim — they
/// are the CSV cell strings and must survive the round trip untouched.
std::vector<Field> parse_flat_object(const std::string& line) {
  std::vector<Field> fields;
  std::size_t i = 0;
  const auto fail = [&](const std::string& what) -> std::size_t {
    throw CampaignError("bad checkpoint record (" + what + "): " + line);
  };
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto parse_string = [&] {
    std::string out;
    if (line[i] != '"') fail("expected string");
    ++i;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) fail("bad escape");
        if (line[i] != '"' && line[i] != '\\') fail("unsupported escape");
      }
      out.push_back(line[i]);
      ++i;
    }
    if (i >= line.size()) fail("unterminated string");
    ++i;  // closing quote
    return out;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') fail("expected {");
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return fields;
  for (;;) {
    skip_ws();
    const std::string key = parse_string();
    skip_ws();
    if (i >= line.size() || line[i] != ':') fail("expected :");
    ++i;
    skip_ws();
    std::string value;
    const bool quoted = i < line.size() && line[i] == '"';
    if (quoted) {
      value = parse_string();
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.pop_back();
      }
      if (value.empty()) fail("empty value");
    }
    fields.push_back({key, std::move(value), quoted});
    skip_ws();
    if (i >= line.size()) fail("unterminated object");
    if (line[i] == '}') break;
    if (line[i] != ',') fail("expected , or }");
    ++i;
  }
  return fields;
}

}  // namespace

std::string manifest_path(const std::string& dir) {
  return (fs::path(dir) / "manifest.txt").string();
}

std::string results_path(const std::string& dir) {
  return (fs::path(dir) / "results.jsonl").string();
}

std::string spec_path(const std::string& dir) {
  return (fs::path(dir) / "spec.txt").string();
}

void init_checkpoint_dir(const std::string& dir, const CampaignSpec& spec,
                         const Manifest& manifest) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw CampaignError("cannot create directory " + dir);
  if (fs::exists(manifest_path(dir))) {
    throw CampaignError("checkpoint directory " + dir +
                        " already holds a campaign; pass --resume to "
                        "continue it or point --dir somewhere fresh");
  }
  {
    std::ofstream os(spec_path(dir));
    if (!os) throw CampaignError("cannot write " + spec_path(dir));
    os << serialize_spec(spec);
  }
  // manifest.tmp then rename: a kill mid-write leaves no manifest, so the
  // directory is not mistaken for a campaign.
  const std::string tmp = (fs::path(dir) / "manifest.tmp").string();
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw CampaignError("cannot write " + tmp);
    os << "ftmesh_campaign_manifest = " << manifest.version << "\n"
       << "spec_hash = " << hex64(manifest.spec_hash) << "\n"
       << "cells = " << manifest.cells << "\n"
       << "shard_index = " << manifest.shard.index << "\n"
       << "shard_count = " << manifest.shard.count << "\n";
    os.flush();
    if (!os) throw CampaignError("cannot write " + tmp);
  }
  fs::rename(tmp, manifest_path(dir), ec);
  if (ec) throw CampaignError("cannot write " + manifest_path(dir));
}

Manifest read_manifest(const std::string& dir) {
  std::ifstream is(manifest_path(dir));
  if (!is) {
    throw CampaignError("no manifest in " + dir +
                        " (not a campaign checkpoint directory?)");
  }
  Manifest m;
  bool versioned = false;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::istringstream key_is(line.substr(0, eq));
    std::string key;
    key_is >> key;
    std::string value = line.substr(eq + 1);
    const auto begin = value.find_first_not_of(" \t");
    value = begin == std::string::npos ? "" : value.substr(begin);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
      value.pop_back();
    }
    try {
      if (key == "ftmesh_campaign_manifest") {
        m.version = core::parse_number<int>(value);
        versioned = true;
      } else if (key == "spec_hash") {
        m.spec_hash = parse_hex64(value);
      } else if (key == "cells") {
        m.cells = core::parse_number<std::size_t>(value);
      } else if (key == "shard_index") {
        m.shard.index = core::parse_number<int>(value);
      } else if (key == "shard_count") {
        m.shard.count = core::parse_number<int>(value);
      } else if (key == "completed") {
        core::parse_number<std::size_t>(value);  // older builds' progress
      } else {
        throw CampaignError("unknown manifest key " + key);
      }
    } catch (const CampaignError&) {
      throw;
    } catch (const std::exception& e) {
      throw CampaignError("malformed manifest line " +
                          std::to_string(line_no) + " in " + dir + ": " +
                          e.what());
    }
  }
  if (!versioned || m.version != 1) {
    throw CampaignError("unsupported manifest version in " + dir);
  }
  return m;
}

std::string encode_record(const StoredCell& cell) {
  const auto& columns = csv_columns();
  if (cell.row.size() != columns.size()) {
    throw CampaignError("record row has " + std::to_string(cell.row.size()) +
                        " cells, schema has " +
                        std::to_string(columns.size()));
  }
  std::ostringstream os;
  os << "{\"cell\":" << cell.index << ",\"id\":\"" << hex64(cell.id) << "\"";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    os << ",\"" << columns[c] << "\":";
    // Column 0 (algorithm) is a string; everything else is emitted raw —
    // the cells are format_double/int strings, which are valid JSON
    // numbers (a deadlocked or empty cell can surface "nan"; our own
    // reader accepts it, strict JSON consumers should skip such rows).
    if (c == 0) {
      os << "\"" << report::JsonWriter::escape(cell.row[c]) << "\"";
    } else {
      os << cell.row[c];
    }
  }
  os << "}";
  return os.str();
}

StoredCell decode_record(const std::string& line) {
  const auto fields = parse_flat_object(line);
  const auto& columns = csv_columns();
  if (fields.size() != columns.size() + 2) {
    throw CampaignError("bad checkpoint record (field count): " + line);
  }
  if (fields[0].key != "cell" || fields[1].key != "id") {
    throw CampaignError("bad checkpoint record (missing identity): " + line);
  }
  // Each field must be written the way encode_record writes it — the id and
  // the algorithm quoted, every other value raw — or the record would not
  // read back the same once re-encoded: a quoted number may hold a ',' or
  // be empty, neither of which a raw token can carry.
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (fields[f].quoted != (f == 1 || f == 2)) {
      throw CampaignError("bad checkpoint record (" + fields[f].key +
                          (fields[f].quoted ? " quoted" : " not quoted") +
                          "): " + line);
    }
  }
  StoredCell cell;
  try {
    cell.index = core::parse_number<std::size_t>(fields[0].value);
  } catch (const std::exception&) {
    throw CampaignError("bad checkpoint record (cell index): " + line);
  }
  cell.id = parse_hex64(fields[1].value);
  cell.row.reserve(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (fields[c + 2].key != columns[c]) {
      throw CampaignError("bad checkpoint record (column order): " + line);
    }
    cell.row.push_back(fields[c + 2].value);
  }
  // encode_record escapes a control character as \t, \n, \r or \u00XX,
  // which this reader does not take, and no algorithm name holds one.
  for (const char ch : cell.row[0]) {
    if (static_cast<unsigned char>(ch) < 0x20) {
      throw CampaignError(
          "bad checkpoint record (control character in algorithm): " + line);
    }
  }
  return cell;
}

std::vector<StoredCell> load_and_repair_results(const std::string& dir,
                                                std::size_t cells_total) {
  const std::string path = results_path(dir);
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::vector<StoredCell> cells;
  std::string valid_prefix;
  std::string line;
  bool tail_dropped = false;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // getline on the final line succeeds even without a trailing newline;
    // eof() there means the line may be a torn append.
    const bool last_and_unterminated = is.eof();
    StoredCell cell;
    try {
      cell = decode_record(line);
    } catch (const CampaignError&) {
      // A malformed line is recoverable only as truncation: drop it and
      // everything after (later lines, if any, postdate the corruption
      // and could not be emitted in cell order past a torn write anyway).
      tail_dropped = true;
      break;
    }
    if (cell.index >= cells_total) {
      throw CampaignError("checkpoint record for cell " +
                          std::to_string(cell.index) + " but campaign has " +
                          std::to_string(cells_total) + " cells (spec drift?)");
    }
    cells.push_back(std::move(cell));
    valid_prefix += line;
    valid_prefix += '\n';
    if (last_and_unterminated) {
      // Parsed fine but missing its newline: rewrite will restore it.
      tail_dropped = true;
    }
  }
  is.close();
  if (tail_dropped) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
      if (!os) throw CampaignError("cannot write " + tmp);
      os << valid_prefix;
      os.flush();
      if (!os) throw CampaignError("cannot write " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) throw CampaignError("cannot repair " + path);
  }
  return cells;
}

struct ResultsLog::Impl {
  std::ofstream os;
  std::string path;
};

ResultsLog::ResultsLog(const std::string& dir) : impl_(new Impl) {
  impl_->path = results_path(dir);
  impl_->os.open(impl_->path, std::ios::app | std::ios::binary);
  if (!impl_->os) {
    const std::string path = impl_->path;
    delete impl_;
    throw CampaignError("cannot append to " + path);
  }
}

ResultsLog::~ResultsLog() { delete impl_; }

void ResultsLog::append(const StoredCell& cell) {
  impl_->os << encode_record(cell) << '\n';
  impl_->os.flush();
  if (!impl_->os) throw CampaignError("write failed on " + impl_->path);
}

}  // namespace ftmesh::campaign
