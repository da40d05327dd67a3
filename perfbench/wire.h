#ifndef TPS_PERFBENCH_WIRE_H_
#define TPS_PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/artifacts.h"
#include "util/socket.h"
#include "util/statusor.h"

namespace tps {
namespace perfbench {

/// One select sent over the wire. Times are in milliseconds; the reply is
/// timestamped by the thread that received it, the moment RecvLine
/// returned.
struct WireReply {
  std::string target;
  /// How late the generator sent the request against its schedule (0 in a
  /// closed loop).
  double send_lag_ms = 0.0;
  /// Scheduled send (open loop) or actual send (closed loop) to reply.
  double latency_ms = 0.0;
  /// Actual send to reply.
  double round_trip_ms = 0.0;
  std::string line;  // Raw reply; empty when the connection failed.
};

struct PhaseResult {
  std::vector<WireReply> replies;
  /// First send to last reply, in seconds.
  double elapsed_s = 0.0;
  /// Latency of each `reload` command sent during the phase.
  std::vector<double> reload_ms;
  /// Artifact version each reload published, in order.
  std::vector<uint64_t> reload_versions;
};

/// One client connection to the server. The load generator opens
/// kLoadConnections of them and a control connection for reloads once per
/// run, so the server's connection threads stay the same throughout.
struct Connection {
  Socket socket;
  std::string buffer;
};

StatusOr<std::vector<Connection>> Connect(const std::string& socket_path,
                                          int count);

/// Sends one reload of `source` on `control` and waits for its ack;
/// appends the latency and the published version to `out`.
Status Reload(Connection* control, const serve::ArtifactPaths& source,
              PhaseResult* out);

/// Open loop: request i is due `arrival_s[i]` after the phase starts and
/// goes out on the next free connection of `load`, however
/// many are still waiting for replies; latency counts from the due time,
/// so a stall is charged to every request it delays. When `reload_at_s`
/// is non-empty, `control` sends a `reload` from `reload_source` at each
/// of those times.
StatusOr<PhaseResult> RunOpenLoop(std::vector<Connection>& load,
                                  const std::vector<double>& arrival_s,
                                  const std::vector<std::string>& targets,
                                  const std::vector<double>& reload_at_s,
                                  const serve::ArtifactPaths& reload_source,
                                  Connection* control);

/// Closed loop: each connection of `load` sends its next
/// request as soon as its previous reply arrives, until every target in
/// `targets` has been sent once.
PhaseResult RunClosedLoop(std::vector<Connection>& load,
                          const std::vector<std::string>& targets);

/// Sends `count` reloads back to back on `control`, with no other
/// traffic; returns their latencies and versions.
StatusOr<PhaseResult> RunIdleReloads(Connection* control,
                                     const serve::ArtifactPaths& source,
                                     size_t count);

}  // namespace perfbench
}  // namespace tps

#endif  // TPS_PERFBENCH_WIRE_H_
