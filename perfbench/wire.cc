#include "perfbench/wire.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "serve/protocol.h"
#include "util/json.h"
#include "util/socket.h"

namespace tps {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

std::vector<std::string> SelectLines(const std::vector<std::string>& targets) {
  std::vector<std::string> lines;
  lines.reserve(targets.size());
  for (const std::string& target : targets) {
    serve::SelectionRequest request;
    request.target = target;
    lines.push_back(serve::RequestToLine(request) + "\n");
  }
  return lines;
}

std::string ReloadLine(const serve::ArtifactPaths& source) {
  json::Value doc = json::Value::Object();
  doc.Set("cmd", json::Value::String("reload"));
  if (!source.store.empty()) {
    doc.Set("store", json::Value::String(source.store));
    doc.Set("id", json::Value::String(source.id));
  } else {
    doc.Set("matrix", json::Value::String(source.matrix));
    doc.Set("clustering", json::Value::String(source.clustering));
  }
  return doc.Dump(-1) + "\n";
}

// Drives `lines` over `connections`, one client thread per connection.
// `due(i)` is request i's scheduled send time, or Clock::time_point::min()
// in a closed loop.
template <typename DueFn>
PhaseResult Drive(std::vector<Connection>& connections,
                  const std::vector<std::string>& targets,
                  const std::vector<std::string>& lines,
                  Clock::time_point start, const DueFn& due) {
  PhaseResult result;
  result.replies.resize(lines.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (Connection& c : connections) {
    clients.emplace_back([&, conn = &c] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= lines.size()) return;
        const Clock::time_point scheduled = due(i);
        if (scheduled != Clock::time_point::min()) {
          std::this_thread::sleep_until(scheduled);
        }
        const Clock::time_point sent = Clock::now();
        WireReply& reply = result.replies[i];
        reply.target = targets[i];
        Status status = conn->socket.SendAll(lines[i]);
        if (status.ok()) {
          StatusOr<std::string> line = conn->socket.RecvLine(&conn->buffer);
          const Clock::time_point received = Clock::now();
          if (line.ok()) reply.line = std::move(line).value();
          const Clock::time_point from =
              scheduled == Clock::time_point::min() ? sent : scheduled;
          reply.latency_ms = Millis(received - from);
          reply.round_trip_ms = Millis(received - sent);
          reply.send_lag_ms = Millis(sent - from);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace

StatusOr<std::vector<Connection>> Connect(const std::string& socket_path,
                                          int count) {
  std::vector<Connection> connections(static_cast<size_t>(count));
  for (Connection& c : connections) {
    TPS_ASSIGN_OR_RETURN(c.socket, ConnectUnix(socket_path));
  }
  return connections;
}

Status Reload(Connection* control, const serve::ArtifactPaths& source,
              PhaseResult* out) {
  const std::string line = ReloadLine(source);
  const Clock::time_point sent = Clock::now();
  TPS_RETURN_NOT_OK(control->socket.SendAll(line));
  TPS_ASSIGN_OR_RETURN(std::string reply,
                       control->socket.RecvLine(&control->buffer));
  const double ms = Millis(Clock::now() - sent);
  TPS_ASSIGN_OR_RETURN(json::Value doc, json::Parse(reply));
  TPS_ASSIGN_OR_RETURN(bool reloaded, doc.GetBool("reloaded"));
  TPS_ASSIGN_OR_RETURN(double version, doc.GetNumber("artifact_version"));
  if (!reloaded) return Status::Internal("reload not acknowledged: " + reply);
  out->reload_ms.push_back(ms);
  out->reload_versions.push_back(static_cast<uint64_t>(version));
  return Status::OK();
}

StatusOr<PhaseResult> RunOpenLoop(std::vector<Connection>& load,
                                  const std::vector<double>& arrival_s,
                                  const std::vector<std::string>& targets,
                                  const std::vector<double>& reload_at_s,
                                  const serve::ArtifactPaths& reload_source,
                                  Connection* control) {
  const std::vector<std::string> lines = SelectLines(targets);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  PhaseResult reloads;
  Status reload_status;
  std::thread reloader;
  if (!reload_at_s.empty()) {
    reloader = std::thread([&] {
      for (double at : reload_at_s) {
        std::this_thread::sleep_until(start + Seconds(at));
        reload_status = Reload(control, reload_source, &reloads);
        if (!reload_status.ok()) return;
      }
    });
  }
  PhaseResult result =
      Drive(load, targets, lines, start,
            [&](size_t i) { return start + Seconds(arrival_s[i]); });
  if (reloader.joinable()) reloader.join();
  TPS_RETURN_NOT_OK(reload_status);
  result.reload_ms = std::move(reloads.reload_ms);
  result.reload_versions = std::move(reloads.reload_versions);
  return result;
}

PhaseResult RunClosedLoop(std::vector<Connection>& load,
                          const std::vector<std::string>& targets) {
  const std::vector<std::string> lines = SelectLines(targets);
  return Drive(load, targets, lines, Clock::now(),
               [](size_t) { return Clock::time_point::min(); });
}

StatusOr<PhaseResult> RunIdleReloads(Connection* control,
                                     const serve::ArtifactPaths& source,
                                     size_t count) {
  PhaseResult result;
  for (size_t i = 0; i < count; ++i) {
    TPS_RETURN_NOT_OK(Reload(control, source, &result));
  }
  return result;
}

}  // namespace perfbench
}  // namespace tps
