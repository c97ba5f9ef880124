// The socket_server transport in-process, with a stub handler: line
// framing, the connection cap, the idle timeout, backpressure against a
// client that never reads, and the stop() drain. Every test opens at most
// cap + 1 sockets at once.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "atf/service/socket_server.hpp"

namespace {

using atf::service::socket_server;
using namespace std::chrono_literals;

std::string socket_path() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  // Unix socket paths are tight (~107 bytes); the pid keeps parallel test
  // processes apart.
  return ::testing::TempDir() + "atf_ss_" + std::to_string(::getpid()) + "_" +
         std::to_string(std::hash<std::string>{}(test->name()) % 100000);
}

/// A raw blocking client with a receive timeout, so a broken server fails
/// the test instead of hanging it.
class raw_client {
public:
  explicit raw_client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~raw_client() { close(); }
  raw_client(const raw_client&) = delete;
  raw_client& operator=(const raw_client&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// The next line without its '\n'; nullopt on end of stream, error or
  /// timeout.
  std::optional<std::string> read_line() {
    std::size_t scanned = 0;  // a multi-megabyte line is scanned once
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scanned);
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      scanned = buffer_.size();
      if (!fill()) {
        return std::nullopt;
      }
    }
  }

  /// True when the server closed the connection with nothing left unread.
  bool at_end() { return buffer_.empty() && !fill() && eof_; }

  std::string round_trip(const std::string& line) {
    if (!send_all(line + "\n")) {
      return "<send failed>";
    }
    return read_line().value_or("<no reply>");
  }

private:
  bool fill() {
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      eof_ = n == 0;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buffer_;
};

/// Echoes each line back prefixed with "re:" and counts the calls.
struct echo_handler {
  std::atomic<int>* calls;
  std::string operator()(const std::string& line) const {
    calls->fetch_add(1);
    return "re:" + line;
  }
};

TEST(SocketServer, PipelinedLinesInOneWriteAreAnsweredInOrder) {
  std::atomic<int> calls{0};
  socket_server server(socket_path(), echo_handler{&calls});
  server.start();

  raw_client client(server.path());
  ASSERT_TRUE(client.connected());
  std::string batch;
  for (int i = 0; i < 200; ++i) {
    batch += "line" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(client.send_all(batch));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(client.read_line(), "re:line" + std::to_string(i));
  }
  EXPECT_EQ(calls.load(), 200);
  server.stop();
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(SocketServer, LineSplitAcrossManyWritesIsAnsweredOnce) {
  std::atomic<int> calls{0};
  socket_server server(socket_path(), echo_handler{&calls});
  server.start();

  raw_client client(server.path());
  ASSERT_TRUE(client.connected());
  const std::string line = R"({"op":"get","kernel":"xgemm","size":"8x8x8"})";
  for (const char c : line) {
    ASSERT_TRUE(client.send_all(std::string(1, c)));
    std::this_thread::sleep_for(1ms);  // let the server see each byte alone
  }
  EXPECT_EQ(calls.load(), 0);
  ASSERT_TRUE(client.send_all("\n"));
  EXPECT_EQ(client.read_line(), "re:" + line);
  // The next reply belongs to the next line: nothing was answered twice.
  EXPECT_EQ(client.round_trip("after"), "re:after");
  EXPECT_EQ(calls.load(), 2);
}

TEST(SocketServer, ConnectionPastTheCapIsRefusedAndTheNextCallerIsServed) {
  std::atomic<int> calls{0};
  socket_server server(socket_path(), echo_handler{&calls},
                       /*connection_cap=*/2);
  server.start();

  raw_client first(server.path());
  raw_client second(server.path());
  ASSERT_EQ(first.round_trip("a"), "re:a");
  ASSERT_EQ(second.round_trip("b"), "re:b");

  raw_client third(server.path());
  ASSERT_TRUE(third.connected());
  const auto refusal = third.read_line();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(*refusal,
            R"x({"ok":false,"error":"too many connections (cap 2)"})x");
  EXPECT_TRUE(third.at_end());
  third.close();
  EXPECT_EQ(server.connections_refused(), 1u);

  // A close frees a slot. The server may still be finishing the pass that
  // refused `third`, so a caller racing it retries, as a real one would.
  first.close();
  std::string reply;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    raw_client next(server.path());
    reply = next.round_trip("c");
    if (reply == "re:c") {
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(reply, "re:c");
  EXPECT_EQ(second.round_trip("d"), "re:d");
}

TEST(SocketServer, IdleConnectionIsClosedAfterTheTimeout) {
  std::atomic<int> calls{0};
  socket_server server(socket_path(), echo_handler{&calls},
                       socket_server::max_connections, 200ms);
  server.start();

  raw_client client(server.path());
  ASSERT_EQ(client.round_trip("hello"), "re:hello");
  const auto before = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.at_end());  // blocks until the server hangs up
  EXPECT_GE(std::chrono::steady_clock::now() - before, 150ms);

  // The server itself is still serving.
  raw_client next(server.path());
  EXPECT_EQ(next.round_trip("again"), "re:again");
}

TEST(SocketServer, ClientThatNeverReadsDoesNotStallOthers) {
  std::atomic<int> calls{0};
  const std::string big_reply(512, 'r');
  socket_server server(socket_path(), [&](const std::string& line) {
    calls.fetch_add(1);
    return line == "ping" ? std::string("pong") : big_reply;
  });
  server.start();

  // Pipeline requests without reading until both directions are full: the
  // server stops reading this client once its replies back up. Without
  // backpressure the sends never stall, and the 8 MiB bound keeps the
  // server's unsent replies to 64 MiB.
  raw_client hog(server.path());
  ASSERT_TRUE(hog.connected());
  ASSERT_EQ(::fcntl(hog.fd(), F_SETFL, O_NONBLOCK), 0);
  std::string requests;
  for (int i = 0; i < 64; ++i) {
    requests += std::string(63, 'q') + "\n";
  }
  int stalled_rounds = 0;
  std::size_t sent = 0;
  while (stalled_rounds < 5 && sent < (std::size_t{8} << 20)) {
    const ssize_t n =
        ::send(hog.fd(), requests.data(), requests.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      stalled_rounds = 0;
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
    ++stalled_rounds;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(stalled_rounds, 5) << "the server kept reading a client that "
                                  "never reads its replies";

  // Backpressure: with the hog's replies unread, its requests stay unread.
  const int answered = calls.load();
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(calls.load(), answered);
  EXPECT_LT(static_cast<std::size_t>(answered), sent / 64);

  // Everyone else is still answered.
  for (int i = 0; i < 3; ++i) {
    raw_client other(server.path());
    EXPECT_EQ(other.round_trip("ping"), "pong");
  }
  hog.close();
  server.stop();
}

TEST(SocketServer, StopDeliversTheWholeReplyOfALineInFlight) {
  // A reply far larger than the socket buffers, so it cannot be written
  // before stop() is called.
  const std::string big_reply(4 << 20, 'y');
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  socket_server server(socket_path(), [&](const std::string& line) {
    if (line == "slow") {
      entered.set_value();
      released.wait();
      return big_reply;
    }
    return "re:" + line;
  });
  server.start();

  raw_client client(server.path());
  ASSERT_TRUE(client.send_all("slow\n"));
  entered.get_future().wait();
  // Sent while the handler runs, so still in the socket at stop(): already
  // received, so it is answered too.
  ASSERT_TRUE(client.send_all("queued\n"));
  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(50ms);  // stop() is waiting on the drain
  release.set_value();

  const auto slow = client.read_line();
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(slow->size(), big_reply.size());
  EXPECT_EQ(*slow, big_reply);
  EXPECT_EQ(client.read_line(), "re:queued");
  EXPECT_TRUE(client.at_end());  // the drain hangs up once it has answered
  client.close();  // so a drain that waits for the client still ends
  stopper.join();
}

TEST(SocketServer, StopDoesNotWaitForIdleConnections) {
  std::atomic<int> calls{0};
  socket_server server(socket_path(), echo_handler{&calls});
  server.start();
  raw_client idle(server.path());
  ASSERT_EQ(idle.round_trip("x"), "re:x");

  std::thread stopper([&] { server.stop(); });
  EXPECT_TRUE(idle.at_end());  // the drain hangs up on it at once
  idle.close();  // so a drain that waits for the client still ends
  stopper.join();
  EXPECT_EQ(::access(server.path().c_str(), F_OK), -1);  // socket unlinked
}

}  // namespace
