// Replays a workload's generated operations through the public functions
// of `store` and `core/anti_entropy`, in this process and without a fleet,
// and times them. This is how the benchmark measures those layers from
// outside the program: no tracing is added inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json_out.hpp"

namespace fleetbench {

struct ReplayOp {
  bool put = false;
  std::string key;
  std::uint64_t version = 0;  ///< puts only
};

/// Replays `ops` into a store (a StorageEngine under `dir` when
/// `durable_store`, else a MemStore), then runs anti-entropy rounds between
/// that store and a replica that missed the last tenth of the puts, then
/// checkpoints and reopens a StorageEngine holding the result. Reports mean
/// store put/get time, versions per key, mean time per anti-entropy message
/// handled, the objects anti-entropy left unrepaired, checkpoint and
/// reopen time, and whether the reopened engine holds every object.
Json store_replay(const std::vector<ReplayOp>& ops, std::size_t value_bytes,
                  const std::string& dir, bool durable_store);

}  // namespace fleetbench
