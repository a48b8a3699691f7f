#include "ftmesh/router/router.hpp"

namespace ftmesh::router {

Router::Router(topology::Coord where, int vcs, int buffer_depth)
    : where_(where),
      vcs_(vcs),
      inputs_(static_cast<std::size_t>(topology::kPortCount * vcs)),
      outputs_(static_cast<std::size_t>(topology::kPortCount * vcs)) {
  for (auto& out : outputs_) out.credits = buffer_depth;
  for (auto& in : inputs_) in.buf.reset_capacity(buffer_depth);
}

std::uint64_t Router::buffered_flits() const noexcept {
  std::uint64_t n = 0;
  for (const auto& ivc : inputs_) n += ivc.buf.size();
  return n;
}

}  // namespace ftmesh::router
