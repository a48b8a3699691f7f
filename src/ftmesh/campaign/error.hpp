#pragma once
// Typed errors for the campaign engine.  CampaignSpecError carries a
// machine-checkable code so tests (and tooling) can distinguish "you typoed
// an algorithm" from "your matrix does not fit the mesh" without parsing
// the message; CampaignError covers runtime failures (checkpoint I/O,
// spec-hash mismatch on resume, incomplete shard sets at merge).

#include <stdexcept>
#include <string>

namespace ftmesh::campaign {

/// Invalid CampaignSpec.  Subclasses std::invalid_argument so legacy
/// callers that catch the old validate() exception keep working.
class CampaignSpecError : public std::invalid_argument {
 public:
  enum class Code {
    base_config,            ///< base SimConfig failed its own validate()
    unknown_algorithm,      ///< name not in the routing registry
    duplicate_algorithm,    ///< same algorithm listed twice
    invalid_rate,           ///< NaN, infinite, negative or > injection_vcs
    invalid_patterns,       ///< patterns <= 0
    fault_count_out_of_range,  ///< negative or >= mesh node count
    invalid_threads,        ///< threads below -1? (reserved)
    bad_value,              ///< a matrix flag's text is not a number
  };

  CampaignSpecError(Code code, const std::string& what)
      : std::invalid_argument("campaign: " + what), code_(code) {}

  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

/// Runtime campaign failure: checkpoint corruption, spec-hash mismatch on
/// resume, missing shards at merge, unwritable output directory.
class CampaignError : public std::runtime_error {
 public:
  explicit CampaignError(const std::string& what)
      : std::runtime_error("campaign: " + what) {}
};

}  // namespace ftmesh::campaign
