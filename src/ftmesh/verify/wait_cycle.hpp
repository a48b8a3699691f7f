#pragma once
// Wait-for cycle search over a live network: the runtime counterpart of
// the verifier's static channel-dependency check.

#include <vector>

#include "ftmesh/router/network.hpp"

namespace ftmesh::verify {

/// Builds the message wait-for graph of `net` (a header at a buffer front,
/// not yet routed, waits for the owners of every channel it may use) and
/// returns one ownership cycle as stable message ids — each member waits
/// on the next, the last on the first — or an empty vector when none
/// exists.  A cycle is evidence, not proof, of deadlock: under adaptive
/// routing a header waiting on a cycle member through one candidate can
/// still leave through another whose owner is not on the cycle.  An empty
/// result does show that no routable header waits in a cycle.
/// O(messages + edges); intended for diagnostics, not the per-cycle path.
[[nodiscard]] std::vector<router::MessageId> find_wait_cycle(
    const router::Network& net);

}  // namespace ftmesh::verify
