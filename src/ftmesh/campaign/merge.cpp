#include "ftmesh/campaign/merge.hpp"

#include <map>
#include <optional>
#include <ostream>
#include <utility>

#include "ftmesh/campaign/checkpoint.hpp"
#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/error.hpp"
#include "ftmesh/report/csv.hpp"

namespace ftmesh::campaign {

MergeReport merge_campaign(const std::vector<std::string>& dirs,
                           std::ostream& os) {
  if (dirs.empty()) throw CampaignError("merge needs at least one directory");

  // Records are kept by cell index as they are read, never preallocated
  // from a manifest's cell count: that count is read from disk, and a
  // corrupt one must be refused as missing cells, not allocated.
  std::optional<Manifest> reference;
  std::map<std::size_t, StoredCell> cells;
  for (const auto& dir : dirs) {
    const Manifest manifest = read_manifest(dir);
    if (!reference) {
      reference = manifest;
    } else {
      if (manifest.spec_hash != reference->spec_hash) {
        throw CampaignError("shard " + dir +
                            " belongs to a different campaign (spec hash "
                            "mismatch)");
      }
      if (manifest.cells != reference->cells) {
        throw CampaignError("shard " + dir + " disagrees on the cell count");
      }
    }
    for (auto& cell : load_and_repair_results(dir, manifest.cells)) {
      const auto [it, fresh] = cells.try_emplace(cell.index, std::move(cell));
      if (!fresh && (it->second.id != cell.id || it->second.row != cell.row)) {
        throw CampaignError("cell " + std::to_string(cell.index) +
                            " appears in multiple shards with different "
                            "results");
      }
    }
  }

  if (cells.size() != reference->cells) {
    std::size_t first_missing = 0;
    for (const auto& [index, cell] : cells) {
      if (index != first_missing) break;
      ++first_missing;
    }
    throw CampaignError(
        std::to_string(reference->cells - cells.size()) + " of " +
        std::to_string(reference->cells) + " cells missing (first: cell " +
        std::to_string(first_missing) +
        ") — are all shards present and finished (or resumed to completion)?");
  }

  report::CsvWriter csv(os);
  csv.row(csv_columns());
  for (const auto& [index, cell] : cells) csv.row(cell.row);

  MergeReport report;
  report.cells = cells.size();
  report.shards = dirs.size();
  return report;
}

}  // namespace ftmesh::campaign
