// A minimal Unix-domain-socket line server: newline-delimited requests in,
// newline-delimited replies out, one handler call per line. Transport
// only — all protocol semantics live in tuning_service::handle_line, which
// is what the handler normally is.
//
// Threading: one thread runs a poll() loop over the listener, a self-pipe
// and every live connection, all non-blocking. Each complete line is
// answered inline on that thread, so the handler must not block (a
// service hit holds a mutex only to copy the snapshot pointer; a miss only
// takes the queue mutex). A connection with unsent reply bytes is not read
// until they drain (backpressure), so a client that pipelines without
// reading cannot grow the daemon's memory. The limits below bound what one
// client can hold. stop() is the SIGTERM drain: every complete line
// already received is answered with its whole reply before the loop exits.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "atf/service/protocol.hpp"

namespace atf::service {

class socket_server {
public:
  using handler = std::function<std::string(const std::string& line)>;

  /// Longest request line accepted, newline excluded. Real requests are
  /// under 200 bytes; a connection whose pending line outgrows this gets
  /// one {"ok":false,...} reply and is closed, so a client that never
  /// sends '\n' cannot grow the daemon's memory without bound.
  static constexpr std::size_t max_line_bytes = 1 << 20;

  /// Live connections served at once; the next caller is refused with one
  /// {"ok":false,...} line. Keeps the daemon well inside the default
  /// 1024-descriptor limit.
  static constexpr std::size_t max_connections = 256;

  /// A connection that makes no progress (no bytes read, no reply bytes
  /// written) for this long is closed. Also bounds the stop() drain for a
  /// client that never reads its replies. Long enough for an operator
  /// connection left open across a benchmark run.
  static constexpr std::chrono::milliseconds idle_timeout{300000};

  /// Does not bind yet; start() does. `connection_cap` and `idle` default
  /// to the constants above; tests pass small values.
  socket_server(std::string socket_path, handler handle,
                std::size_t connection_cap = max_connections,
                std::chrono::milliseconds idle = idle_timeout);
  ~socket_server();

  socket_server(const socket_server&) = delete;
  socket_server& operator=(const socket_server&) = delete;

  /// Binds (unlinking a stale socket file first), listens and starts the
  /// poll thread. Throws service_error on failure or on platforms without
  /// Unix domain sockets.
  void start();

  /// Drains (see above), joins the poll thread and unlinks the socket
  /// file. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections closed at once because max_connections were live.
  [[nodiscard]] std::uint64_t connections_refused() const noexcept {
    return refused_.load(std::memory_order_relaxed);
  }

private:
  void run();

  std::string path_;
  handler handle_;
  std::size_t connection_cap_;
  std::chrono::milliseconds idle_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // stop() writes [1]; the loop polls [0]
  std::thread loop_thread_;
  bool running_ = false;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> refused_{0};
};

}  // namespace atf::service
