#include "atf/service/socket_server.hpp"

#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define ATF_SERVICE_HAVE_UNIX_SOCKETS 1
#endif

namespace atf::service {

struct socket_server::connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

socket_server::socket_server(std::string socket_path, handler handle)
    : path_(std::move(socket_path)), handle_(std::move(handle)) {}

socket_server::~socket_server() { stop(); }

#if ATF_SERVICE_HAVE_UNIX_SOCKETS

namespace {

/// write() the whole buffer, retrying short writes; false on error.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
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
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw service_error(std::string("socket_server: socket() failed: ") +
                        std::strerror(errno));
  }
  ::unlink(path_.c_str());  // a stale socket file from a killed daemon
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int saved_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw service_error("socket_server: cannot listen on '" + path_ +
                        "': " + std::strerror(saved_errno));
  }
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  running_ = true;
}

void socket_server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed by stop()
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Reap finished connections so a long-lived daemon does not accumulate
    // joinable threads.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        (*it)->thread.join();
        ::close((*it)->fd);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<connection>();
    conn->fd = fd;
    connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { serve_connection(raw); });
    connections_.push_back(std::move(conn));
  }
}

void socket_server::serve_connection(connection* conn) {
  std::string buffer;
  std::size_t scanned = 0;  // prefix of `buffer` known to hold no newline
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF or connection shut down by stop()
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t newline = 0;
    bool writable = true;
    while (writable &&
           (newline = buffer.find('\n', scanned)) != std::string::npos) {
      const std::string reply =
          handle_(buffer.substr(start, newline - start)) + "\n";
      start = scanned = newline + 1;
      writable = write_all(conn->fd, reply.data(), reply.size());
    }
    if (!writable) {
      break;  // the client is gone
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > max_line_bytes) {
      const std::string reply =
          R"({"ok":false,"error":"request line longer than )" +
          std::to_string(max_line_bytes) + R"( bytes"})" "\n";
      (void)write_all(conn->fd, reply.data(), reply.size());
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
  }
  // The fd is closed by the reaper (or stop()), not here: closing it now
  // would let the kernel reuse the number while stop() may still be about
  // to shutdown() it.
  conn->done.store(true);
}

void socket_server::stop() {
  if (!running_) {
    return;
  }
  stopping_.store(true);
  // Closing the listener makes accept() fail and the accept loop return.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  accept_thread_.join();
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) {
      // Wakes a blocked read; the serve loop finishes the reply it is
      // writing (whole lines only) and exits.
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (auto& conn : connections_) {
      conn->thread.join();
      ::close(conn->fd);
    }
    connections_.clear();
  }
  ::unlink(path_.c_str());
  running_ = false;
}

#else  // !ATF_SERVICE_HAVE_UNIX_SOCKETS

void socket_server::start() {
  throw service_error(
      "socket_server: Unix domain sockets are unavailable on this platform");
}
void socket_server::accept_loop() {}
void socket_server::serve_connection(connection*) {}
void socket_server::stop() {}

#endif

}  // namespace atf::service
