// End-to-end tests of the atf_served daemon as a real process: concurrent
// clients over the Unix socket, the SIGTERM drain, and the tentpole
// guarantee — kill, restart, re-query, and the reply bytes are identical.
// Binary paths are injected by CMake via ATF_SERVED_BINARY.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "atf/service/client.hpp"
#include "atf/service/socket_server.hpp"

#ifndef ATF_SERVED_BINARY
#error "ATF_SERVED_BINARY must be defined by the build system"
#endif

namespace {

using atf::service::service_client;
using atf::service::service_key;

service_key xgemm_key(const std::string& size) {
  service_key key;
  key.kernel = "xgemm";
  key.device = "K20m";
  key.size = size;
  return key;
}

class ServedE2eTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "atf_served_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // Unix socket paths are tight (~107 bytes); keep the socket short.
    socket_ = dir_ + "/s";
    journals_ = dir_ + "/journals";
  }

  void TearDown() override {
    if (daemon_pid_ > 0) {
      kill(daemon_pid_, SIGKILL);
      waitpid(daemon_pid_, nullptr, 0);
    }
    std::filesystem::remove_all(dir_);
  }

  /// Forks and execs the daemon; its stderr goes to dir_/daemon.log.
  pid_t spawn_daemon(const std::vector<std::string>& extra_args) {
    std::vector<std::string> args = {ATF_SERVED_BINARY,
                                     "--socket",      socket_,
                                     "--journal-dir", journals_,
                                     "--technique",   "random",
                                     "--refine-step", "30"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());

    const pid_t pid = fork();
    if (pid == 0) {
      std::vector<char*> argv;
      for (auto& arg : args) {
        argv.push_back(arg.data());
      }
      argv.push_back(nullptr);
      // Quiet the child's stderr so test output stays readable.
      std::freopen((dir_ + "/daemon.log").c_str(), "a", stderr);
      execv(ATF_SERVED_BINARY, argv.data());
      _exit(127);
    }
    return pid;
  }

  /// Launches the daemon and waits until it answers a ping.
  void start_daemon(const std::vector<std::string>& extra_args = {}) {
    daemon_pid_ = spawn_daemon(extra_args);
    ASSERT_GE(daemon_pid_, 0);
    for (int i = 0; i < 300; ++i) {
      try {
        service_client client(socket_);
        if (client.ping()) {
          return;
        }
      } catch (const atf::service::service_error&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "daemon never came up; log:\n" << slurp(dir_ + "/daemon.log");
  }

  /// SIGTERMs the daemon and returns its exit code.
  int stop_daemon() {
    if (daemon_pid_ <= 0) {
      return -1;
    }
    kill(daemon_pid_, SIGTERM);
    int status = 0;
    waitpid(daemon_pid_, &status, 0);
    daemon_pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  /// Queries until the daemon serves a hit (refinement runs in background).
  std::string wait_for_hit(const service_key& key, int max_seconds = 60) {
    for (int i = 0; i < max_seconds * 10; ++i) {
      service_client client(socket_);
      const auto reply = client.get(key);
      EXPECT_TRUE(reply.ok) << reply.error;
      if (reply.hit) {
        return reply.raw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ADD_FAILURE() << "no hit for " << key.to_string() << "; log:\n"
                  << slurp(dir_ + "/daemon.log");
    return {};
  }

  static std::string slurp(const std::string& path) {
    std::string text;
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
      char buffer[4096];
      std::size_t n = 0;
      while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
        text.append(buffer, n);
      }
      std::fclose(f);
    }
    return text;
  }

  std::string dir_, socket_, journals_;
  pid_t daemon_pid_ = -1;
};

TEST_F(ServedE2eTest, MissThenHitThenCleanShutdown) {
  start_daemon();
  const service_key key = xgemm_key("16x16x16");
  {
    service_client client(socket_);
    const auto miss = client.get(key);
    EXPECT_TRUE(miss.ok);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(miss.enqueued);
  }
  const std::string hit = wait_for_hit(key);
  EXPECT_NE(hit.find("\"hit\":true"), std::string::npos);
  EXPECT_EQ(stop_daemon(), 0);  // SIGTERM drains and exits cleanly
}

// Registry families are first-class service keys: a stencil2d query misses,
// gets refined through atf::kernels::registry::tune, and then hits — and
// like every key, the answer survives a restart bit-identically.
TEST_F(ServedE2eTest, RegistryKernelMissRefineHitAndRestart) {
  start_daemon();
  service_key key;
  key.kernel = "stencil2d";
  key.device = "K20m";
  key.size = "40x40x1";
  {
    service_client client(socket_);
    const auto miss = client.get(key);
    EXPECT_TRUE(miss.ok);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(miss.enqueued) << miss.error;
  }
  const std::string hit = wait_for_hit(key);
  EXPECT_NE(hit.find("\"hit\":true"), std::string::npos);
  EXPECT_EQ(stop_daemon(), 0);

  start_daemon({"--no-refiner"});
  std::string before;
  {
    service_client client(socket_);
    const auto reply = client.get(key);
    ASSERT_TRUE(reply.hit);
    before = reply.raw;
  }
  EXPECT_EQ(stop_daemon(), 0);

  start_daemon({"--no-refiner"});
  service_client client(socket_);
  const auto after = client.get(key);
  EXPECT_TRUE(after.hit);
  EXPECT_EQ(after.raw, before);

  // A registry kernel with a wrong-arity size is rejected up front, with
  // the family's dimension names in the explanation.
  service_key bad = key;
  bad.size = "40x40";
  const auto rejected = client.get(bad);
  EXPECT_TRUE(rejected.unrefinable);
  // The validate() reason rides in the raw reply line's "reason" field.
  EXPECT_NE(rejected.raw.find("HxWxR"), std::string::npos) << rejected.raw;
}

// Golden pin: exactly one refinement pass of xgemm 64x64x64 on K20m under
// --technique random --seed 24301 --refine-step 30 serves these bytes. The
// values were recorded when xgemm still had its own tune driver; they pin
// that xgemm, refined through the kernel registry, answers identically.
TEST_F(ServedE2eTest, GoldenXgemmReplyAfterOneRefine) {
  start_daemon({"--seed", "24301"});
  const service_key key = xgemm_key("64x64x64");
  {
    service_client client(socket_);
    ASSERT_TRUE(client.get(key).enqueued);
    // Poll stats, not get: a get miss would enqueue a second pass.
    std::uint64_t passes = 0;
    for (int i = 0; i < 600 && passes == 0; ++i) {
      const auto stats = client.stats();
      passes = stats.counters.at("refines") +
               stats.counters.at("failed_refines");
      if (passes == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    ASSERT_EQ(passes, 1u);
  }
  EXPECT_EQ(stop_daemon(), 0);

  start_daemon({"--no-refiner"});
  service_client client(socket_);
  const auto reply = client.get(key);
  ASSERT_TRUE(reply.hit) << reply.raw;
  EXPECT_EQ(reply.hash, "8791d9a10d9d150e");
  EXPECT_NE(reply.raw.find("\"scalar\":6508.9152651773238,"),
            std::string::npos)
      << reply.raw;
  EXPECT_EQ(reply.configs, 30u);
  EXPECT_EQ(reply.raw,
            "{\"ok\":true,\"op\":\"get\",\"key\":\"xgemm/K20m/64x64x64\","
            "\"hit\":true,\"hash\":\"8791d9a10d9d150e\","
            "\"scalar\":6508.9152651773238,\"config\":{\"WGD\":\"64\","
            "\"MDIMCD\":\"32\",\"NDIMCD\":\"8\",\"MDIMAD\":\"2\","
            "\"NDIMBD\":\"4\",\"KWID\":\"8\",\"VWMD\":\"2\",\"VWND\":\"1\","
            "\"PADA\":\"true\",\"PADB\":\"true\"},\"configs\":30}");
}

// --technique is checked once at start-up against the registry's technique
// factory: an unknown name exits 1 and the message lists the valid set.
TEST_F(ServedE2eTest, UnknownTechniqueExitsNamingTheValidSet) {
  const pid_t pid = spawn_daemon({"--technique", "banana"});
  ASSERT_GT(pid, 0);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string log = slurp(dir_ + "/daemon.log");
  EXPECT_NE(log.find("'banana'"), std::string::npos) << log;
  EXPECT_NE(log.find("exhaustive|annealing|opentuner|surrogate|random"),
            std::string::npos)
      << log;
}

// A negative count behind leading whitespace (" -1") is refused like "-1":
// strtoull would skip the space and wrap the value to 2^64-1. The wait is
// bounded because a daemon that accepts the flag starts serving instead.
TEST_F(ServedE2eTest, NegativeCountWithLeadingSpaceExitsNamingTheFlag) {
  const pid_t pid = spawn_daemon({"--max-pending", " -1"});
  ASSERT_GT(pid, 0);
  int status = 0;
  pid_t waited = 0;
  for (int i = 0; i < 500 && waited == 0; ++i) {
    waited = waitpid(pid, &status, WNOHANG);
    if (waited == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (waited == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    FAIL() << "daemon accepted --max-pending ' -1' and kept running";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
  const std::string log = slurp(dir_ + "/daemon.log");
  EXPECT_NE(log.find("--max-pending"), std::string::npos) << log;
}

TEST_F(ServedE2eTest, ExhaustiveTechniqueStartsAndServes) {
  start_daemon({"--technique", "exhaustive"});
  const std::string hit = wait_for_hit(xgemm_key("8x8x8"));
  EXPECT_NE(hit.find("\"hit\":true"), std::string::npos);
  EXPECT_EQ(stop_daemon(), 0);
}

// A client that streams megabytes without a newline gets one error line and
// is disconnected once its pending line passes socket_server::max_line_bytes;
// the daemon keeps serving everyone else.
TEST_F(ServedE2eTest, OverlongRequestLineIsRefusedAndTheDaemonKeepsServing) {
  start_daemon({"--no-refiner"});
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  // Without the cap the daemon would never reply; don't hang on that.
  timeval timeout{};
  timeout.tv_sec = 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  const std::string junk(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent < (std::size_t{4} << 20)) {
    const ssize_t n = send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      break;  // the daemon hung up on us
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char c = 0;
  while (read(fd, &c, 1) == 1 && c != '\n') {
    reply += c;
  }
  close(fd);
  EXPECT_GT(sent, atf::service::socket_server::max_line_bytes);
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;

  service_client client(socket_);
  EXPECT_TRUE(client.ping());
  const auto answer = client.get(xgemm_key("8x8x8"));
  EXPECT_TRUE(answer.ok) << answer.raw;
  EXPECT_EQ(stop_daemon(), 0);
}

TEST_F(ServedE2eTest, UnrefinableKeysAreReportedNotQueued) {
  start_daemon();
  service_client client(socket_);

  service_key wrong_kernel = xgemm_key("8x8x8");
  wrong_kernel.kernel = "conv9d";
  EXPECT_TRUE(client.get(wrong_kernel).unrefinable);

  service_key wrong_device = xgemm_key("8x8x8");
  wrong_device.device = "GTX9999";
  EXPECT_TRUE(client.get(wrong_device).unrefinable);

  service_key bad_size = xgemm_key("8x8xpotato");
  EXPECT_TRUE(client.get(bad_size).unrefinable);

  const auto stats = client.stats();
  EXPECT_EQ(stats.counters.at("unrefinable"), 3u);
  EXPECT_EQ(stats.counters.at("pending"), 0u);
}

// Request sizes go through the registry's digits-only parser: a sign, a
// space or an overflowing extent makes the key unrefinable, where stoull
// would have wrapped "-3" to 2^64-3 and handed the space builder a giant
// extent.
TEST_F(ServedE2eTest, SignedOrOverflowingSizesAreUnrefinable) {
  start_daemon();
  service_client client(socket_);
  for (const char* size :
       {"-3x8x8", "8x+8x8", "8x8x 8", "8x8x18446744073709551616"}) {
    const auto reply = client.get(xgemm_key(size));
    EXPECT_TRUE(reply.unrefinable) << size << ": " << reply.raw;
    EXPECT_NE(reply.raw.find("invalid size component"), std::string::npos)
        << size << ": " << reply.raw;
  }
  const auto stats = client.stats();
  EXPECT_EQ(stats.counters.at("unrefinable"), 4u);
  EXPECT_EQ(stats.counters.at("pending"), 0u);
  EXPECT_EQ(stop_daemon(), 0);
}

TEST_F(ServedE2eTest, ConcurrentClientsAllGetAnswers) {
  start_daemon();
  const service_key key = xgemm_key("16x16x16");
  (void)wait_for_hit(key);
  // Freeze the state (see the baseline note below): with the refiner on, a
  // straggling second refinement pass could legally publish a new snapshot
  // mid-test and change the reply bytes under the clients.
  EXPECT_EQ(stop_daemon(), 0);
  start_daemon({"--no-refiner"});

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::vector<std::thread> clients;
  std::vector<std::string> first_reply(kClients);
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        service_client client(socket_);
        for (int q = 0; q < kQueriesEach; ++q) {
          const auto reply = client.get(key);
          if (!reply.ok || !reply.hit) {
            ++failures;
            return;
          }
          if (q == 0) {
            first_reply[c] = reply.raw;
          } else if (reply.raw != first_reply[c]) {
            ++failures;  // answers must be stable within a snapshot
            return;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every client saw the same bytes.
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(first_reply[c], first_reply[0]);
  }
  service_client client(socket_);
  const auto stats = client.stats();
  EXPECT_GE(stats.counters.at("hits"),
            static_cast<std::uint64_t>(kClients * kQueriesEach));
}

// Note on baselines: while the refiner is on, every polled miss may
// re-enqueue the key, so a drain can legitimately append more records
// after a hit was observed. The bit-identity contract is about what the
// *journals* say, so both restart tests freeze the state first (--no-
// refiner) and compare across restarts of the frozen daemon.

TEST_F(ServedE2eTest, RestartServesBitIdenticalAnswers) {
  start_daemon();
  const service_key key = xgemm_key("16x16x16");
  ASSERT_FALSE(wait_for_hit(key).empty());
  EXPECT_EQ(stop_daemon(), 0);

  start_daemon({"--no-refiner"});
  std::string before;
  {
    service_client client(socket_);
    const auto reply = client.get(key);
    ASSERT_TRUE(reply.hit);
    before = reply.raw;
  }
  EXPECT_EQ(stop_daemon(), 0);

  // Restart over the same journals, compacting on the way up: the reply
  // must be byte-identical — the snapshot is exactly the journals.
  start_daemon({"--compact-on-start", "--no-refiner"});
  service_client client(socket_);
  const auto after = client.get(key);
  EXPECT_TRUE(after.hit);
  EXPECT_EQ(after.raw, before);
}

TEST_F(ServedE2eTest, SigkillLosesNothingDurable) {
  start_daemon();
  const service_key key = xgemm_key("16x16x16");
  ASSERT_FALSE(wait_for_hit(key).empty());
  // The hardest crash: no drain, no destructors. Whatever prefix the
  // journals hold at this instant is the state both restarts must agree on.
  kill(daemon_pid_, SIGKILL);
  waitpid(daemon_pid_, nullptr, 0);
  daemon_pid_ = -1;

  start_daemon({"--no-refiner"});
  std::string before;
  {
    service_client client(socket_);
    const auto reply = client.get(key);
    ASSERT_TRUE(reply.hit);
    before = reply.raw;
  }
  kill(daemon_pid_, SIGKILL);
  waitpid(daemon_pid_, nullptr, 0);
  daemon_pid_ = -1;

  start_daemon({"--no-refiner"});
  service_client client(socket_);
  EXPECT_EQ(client.get(key).raw, before);
}

}  // namespace
