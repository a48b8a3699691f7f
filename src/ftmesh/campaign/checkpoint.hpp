#pragma once
// Checkpoint persistence for streamed campaigns.  A checkpoint directory
// holds three files:
//
//   spec.txt       canonical serialize_spec() text, for human inspection
//   results.jsonl  one JSON object per *completed* cell, appended (and
//                  flushed) the moment the cell retires, in cell order
//   manifest.txt   spec hash + matrix size + shard identity, written
//                  atomically (tmp + rename) once, when the directory is
//                  created
//
// The JSONL is the source of truth: resume re-reads it, tolerates a
// truncated final line (the signature of a kill mid-append), rewrites the
// file to its valid prefix, and skips every cell it already holds.  The
// manifest exists to refuse fast and loudly — a resume whose spec hash
// does not match is a different experiment, not a continuation.
//
// Each record stores the cell's CSV row as formatted strings next to the
// machine-readable identity fields, so regenerating the campaign CSV from
// checkpoints (or merging shards) is replay, not recomputation — the
// byte-for-byte guarantee does not depend on double round-tripping.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ftmesh/campaign/spec.hpp"

namespace ftmesh::campaign {

struct Manifest {
  int version = 1;
  std::uint64_t spec_hash = 0;
  std::size_t cells = 0;  ///< total matrix size (all shards)
  Shard shard;
};

/// One cell restored from (or destined for) results.jsonl.
struct StoredCell {
  std::size_t index = 0;
  std::uint64_t id = 0;
  std::vector<std::string> row;  ///< csv_columns()-ordered formatted cells
};

std::string manifest_path(const std::string& dir);
std::string results_path(const std::string& dir);
std::string spec_path(const std::string& dir);

/// Creates a fresh checkpoint directory: refuses when a manifest already
/// exists (pass --resume for that), writes spec.txt and the initial
/// manifest.
void init_checkpoint_dir(const std::string& dir, const CampaignSpec& spec,
                         const Manifest& manifest);

/// Throws CampaignError when missing or malformed.  A `completed = N` line
/// (a progress count older builds rewrote as cells retired) is accepted
/// and ignored, so their checkpoint directories still resume.
Manifest read_manifest(const std::string& dir);

/// The JSONL line (without trailing newline) for one completed cell.
std::string encode_record(const StoredCell& cell);

/// Parses one results.jsonl line.  Throws CampaignError on malformed
/// input (callers decide whether a bad *final* line is truncation).
StoredCell decode_record(const std::string& line);

/// Reads every valid record from results.jsonl (missing file = empty).
/// A malformed or truncated trailing line is dropped; the file is then
/// rewritten to exactly the valid records so subsequent appends continue
/// from a clean prefix.  Records with index >= cells_total throw.
std::vector<StoredCell> load_and_repair_results(const std::string& dir,
                                                std::size_t cells_total);

/// Append-only results log; one flushed line per retired cell.
class ResultsLog {
 public:
  /// Opens results.jsonl for appending.  Throws CampaignError on failure.
  explicit ResultsLog(const std::string& dir);
  ~ResultsLog();

  ResultsLog(const ResultsLog&) = delete;
  ResultsLog& operator=(const ResultsLog&) = delete;

  void append(const StoredCell& cell);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace ftmesh::campaign
