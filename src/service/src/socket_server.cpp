#include "atf/service/socket_server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define ATF_SERVICE_HAVE_UNIX_SOCKETS 1
#endif

namespace atf::service {

socket_server::socket_server(std::string socket_path, handler handle,
                             std::size_t connection_cap,
                             std::chrono::milliseconds idle)
    : path_(std::move(socket_path)),
      handle_(std::move(handle)),
      connection_cap_(connection_cap),
      idle_(idle) {}

socket_server::~socket_server() { stop(); }

#if ATF_SERVICE_HAVE_UNIX_SOCKETS

namespace {

using clock = std::chrono::steady_clock;

constexpr int listen_backlog = 64;
// Short-lived callers reconnect as fast as they are answered: an unbounded
// accept pass would never get back to poll() to see their old connections
// close, and would fill the cap with them.
constexpr int accepts_per_wakeup = 16;

#ifdef MSG_NOSIGNAL
constexpr int send_flags = MSG_NOSIGNAL;  // a vanished client is no signal
#else
constexpr int send_flags = 0;
#endif

bool set_nonblocking_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0 &&
         ::fcntl(fd, F_SETFD, FD_CLOEXEC) == 0;
}

int accept_nonblocking(int listen_fd) {
#ifdef __linux__
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0 && !set_nonblocking_cloexec(fd)) {
    ::close(fd);
    return -1;
  }
  return fd;
#endif
}

std::string refusal_line(const std::string& reason) {
  return R"({"ok":false,"error":")" + reason + "\"}\n";
}

struct connection {
  int fd = -1;
  std::string in;           // received, unanswered: at most a partial line
  std::size_t scanned = 0;  // prefix of `in` known to hold no newline
  std::string out;          // reply bytes not yet written
  std::size_t written = 0;  // prefix of `out` already written
  bool hang_up = false;     // close once `out` has drained
  clock::time_point last_progress;
};

/// One read, its complete lines answered into `out`. False at end of
/// stream or on an error.
bool read_and_answer(connection& conn, const socket_server::handler& handle,
                     clock::time_point now) {
  char chunk[4096];
  ssize_t n = 0;
  do {
    n = ::read(conn.fd, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  conn.last_progress = now;
  conn.in.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  std::size_t newline = 0;
  while ((newline = conn.in.find('\n', conn.scanned)) != std::string::npos) {
    conn.out += handle(conn.in.substr(start, newline - start));
    conn.out += '\n';
    start = conn.scanned = newline + 1;
  }
  conn.in.erase(0, start);
  conn.scanned = conn.in.size();
  if (conn.in.size() > socket_server::max_line_bytes) {
    conn.out += refusal_line("request line longer than " +
                             std::to_string(socket_server::max_line_bytes) +
                             " bytes");
    conn.hang_up = true;
  }
  return true;
}

/// Serves a ready connection: reads only when no reply bytes are pending
/// (backpressure), then writes what the socket takes. False when the
/// connection is done.
bool serve(connection& conn, const socket_server::handler& handle,
           clock::time_point now) {
  if (conn.out.empty() && !read_and_answer(conn, handle, now)) {
    return false;
  }
  while (conn.written < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.written,
                             conn.out.size() - conn.written, send_flags);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.written += static_cast<std::size_t>(n);
    conn.last_progress = now;
  }
  conn.out.clear();
  conn.written = 0;
  return !conn.hang_up;
}

}  // namespace

void socket_server::start() {
  if (running_) {
    return;
  }
  if (path_.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw service_error("socket_server: path too long for a Unix socket: '" +
                        path_ + "'");
  }
  ::unlink(path_.c_str());  // a stale socket file from a killed daemon
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (::pipe(wake_pipe_) != 0 || listen_fd_ < 0 ||
      !set_nonblocking_cloexec(listen_fd_) ||
      !set_nonblocking_cloexec(wake_pipe_[0]) ||
      !set_nonblocking_cloexec(wake_pipe_[1]) ||
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, listen_backlog) != 0) {
    const int saved_errno = errno;
    for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
      if (*fd >= 0) {
        ::close(*fd);
      }
      *fd = -1;
    }
    throw service_error("socket_server: cannot listen on '" + path_ +
                        "': " + std::strerror(saved_errno));
  }
  loop_thread_ = std::thread([this] { run(); });
  running_ = true;
}

void socket_server::run() {
  std::vector<connection> conns;
  std::vector<pollfd> fds;
  bool stopping = false;
  int timeout_ms = -1;  // to the nearest idle deadline; none while no one is up

  // Accepts up to `limit` queued connections and reads each once right
  // away: a short-lived caller's request usually comes with its connect.
  const auto accept_pending = [&](int limit, clock::time_point now) {
    for (int i = 0; i < limit; ++i) {
      const int fd = accept_nonblocking(listen_fd_);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) {
          continue;
        }
        return;  // drained, or out of descriptors until one closes
      }
      if (conns.size() >= connection_cap_) {
        refused_.fetch_add(1, std::memory_order_relaxed);
        const std::string line = refusal_line(
            "too many connections (cap " + std::to_string(connection_cap_) +
            ")");
        (void)::send(fd, line.data(), line.size(), send_flags);
        ::close(fd);
        continue;
      }
      accepted_.fetch_add(1, std::memory_order_relaxed);
      connection& conn = conns.emplace_back();
      conn.fd = fd;
      conn.last_progress = now;
      if (!serve(conn, handle_, now)) {
        ::close(fd);
        conns.pop_back();
      }
    }
  };

  while (!stopping || !conns.empty()) {
    fds.clear();
    if (!stopping) {
      fds.push_back({wake_pipe_[0], POLLIN, 0});
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    const std::size_t first_conn = fds.size();
    for (const auto& conn : conns) {
      fds.push_back({conn.fd,
                     static_cast<short>(conn.out.empty() ? POLLIN : POLLOUT),
                     0});
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    const auto now = clock::now();
    const std::size_t polled = conns.size();

    if (!stopping && fds[0].revents != 0) {
      // The drain: take what is already queued on the listener, stop
      // accepting, and shut every read side, so each connection ends once
      // the lines it has already sent are answered.
      stopping = true;
      accept_pending(listen_backlog, now);
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (const auto& conn : conns) {
        ::shutdown(conn.fd, SHUT_RD);
      }
    } else if (!stopping && fds[1].revents != 0) {
      accept_pending(accepts_per_wakeup, now);
    }

    timeout_ms = -1;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      connection& conn = conns[i];
      const bool ready = i < polled && fds[first_conn + i].revents != 0;
      if ((ready && !serve(conn, handle_, now)) ||
          conn.last_progress + idle_ <= now) {
        ::close(conn.fd);
        conn.fd = -1;
        continue;
      }
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          conn.last_progress + idle_ - now);
      const int wait = static_cast<int>(left.count());
      timeout_ms = timeout_ms < 0 ? wait : std::min(timeout_ms, wait);
    }
    std::erase_if(conns, [](const connection& c) { return c.fd < 0; });
  }

  for (const auto& conn : conns) {
    ::close(conn.fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void socket_server::stop() {
  if (!running_) {
    return;
  }
  const char byte = 0;
  while (::write(wake_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
  }
  loop_thread_.join();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  ::unlink(path_.c_str());
  running_ = false;
}

#else  // !ATF_SERVICE_HAVE_UNIX_SOCKETS

void socket_server::start() {
  throw service_error(
      "socket_server: Unix domain sockets are unavailable on this platform");
}
void socket_server::run() {}
void socket_server::stop() {}

#endif

}  // namespace atf::service
