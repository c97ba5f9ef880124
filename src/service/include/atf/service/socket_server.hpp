// A minimal Unix-domain-socket line server: newline-delimited requests in,
// newline-delimited replies out, one handler call per line. Transport
// only — all protocol semantics live in tuning_service::handle_line, which
// is what the handler normally is.
//
// Threading: one accept thread plus one thread per connection (the service
// answers from an immutable snapshot, so connection threads scale without
// contention). stop() shuts both directions of every live connection down,
// so blocked reads return and threads join promptly — the SIGTERM-drain
// path: in-flight requests finish, half-written replies do not happen
// (replies are written whole per line).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
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

  /// Does not bind yet; start() does.
  socket_server(std::string socket_path, handler handle);
  ~socket_server();

  socket_server(const socket_server&) = delete;
  socket_server& operator=(const socket_server&) = delete;

  /// Binds (unlinking a stale socket file first), listens and spawns the
  /// accept thread. Throws service_error on failure or on platforms
  /// without Unix domain sockets.
  void start();

  /// Stops accepting, shuts down live connections, joins every thread and
  /// unlinks the socket file. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

private:
  struct connection;

  void accept_loop();
  void serve_connection(connection* conn);

  std::string path_;
  handler handle_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;

  std::mutex connections_mutex_;
  std::list<std::unique_ptr<connection>> connections_;
  std::atomic<std::uint64_t> accepted_{0};
};

}  // namespace atf::service
