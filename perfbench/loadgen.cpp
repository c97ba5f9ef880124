// Load generator for atf_served, shaped like the traffic DESIGN.md §13
// describes: many short-lived callers that each ask for one answer.
//
//   loadgen --socket PATH --seconds S --callers C --plan FILE --cold FILE
//           --poll-ms P --reused N
//
// Every request is one caller: it connects with atf::service::service_client
// (the client a tuned library embeds), sends one get, reads the reply and
// disconnects, as `atf_tune --serve SOCKET --query` does. So each request
// pays the connect, the accept and the daemon's per-connection thread start.
// Until S seconds have passed:
//
//   * C closed loops of callers walk the plan file from staggered offsets;
//     a loop starts its next caller when the previous one returned. A plan
//     line is "request<TAB>expected reply" for a key the daemon has tuned.
//   * One more loop walks the cold file (one get request per line, for keys
//     the daemon has never tuned): the first caller of a key must miss and
//     enqueue a refinement, and a new caller asks again every P ms until the
//     key hits; then the next key follows.
//
// Then N plan requests on one reused connection give the round trip without
// the per-caller connection cost.
//
// Every reply is checked; the summary goes to stdout as one JSON object with
// latency percentiles (nanoseconds) per request class and for all requests.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "atf/service/client.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

struct plan_line {
  std::string request;
  std::string expected;  ///< exact reply bytes
};

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

/// Latency samples of one request class, plus the failures seen in it.
struct tally {
  std::vector<std::int64_t> ns;
  std::uint64_t errors = 0;

  void merge(const tally& other) {
    ns.insert(ns.end(), other.ns.begin(), other.ns.end());
    errors += other.errors;
  }
};

std::mutex report_mutex;
int reported_errors = 0;

void report_error(const std::string& what, const std::string& reply) {
  std::lock_guard<std::mutex> lock(report_mutex);
  if (reported_errors++ < 5) {
    std::fprintf(stderr, "loadgen: %s: %s\n", what.c_str(), reply.c_str());
  }
}

std::int64_t elapsed_ns(clock_type::time_point from, clock_type::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// One short-lived caller: connect, one request, disconnect. A failed
/// connection or round trip returns the error text, which no check accepts.
std::string call(const std::string& socket_path, const std::string& request) {
  try {
    atf::service::service_client client(socket_path);
    return client.round_trip(request);
  } catch (const std::exception& error) {
    return error.what();
  }
}

void run_callers(const std::string& socket_path,
                 const std::vector<plan_line>& plan, std::size_t start,
                 clock_type::time_point deadline, tally& result) {
  for (std::size_t i = start; clock_type::now() < deadline; ++i) {
    const plan_line& line = plan[i % plan.size()];
    const auto t0 = clock_type::now();
    const std::string reply = call(socket_path, line.request);
    result.ns.push_back(elapsed_ns(t0, clock_type::now()));
    if (reply != line.expected) {
      ++result.errors;
      report_error("warm reply differs", reply);
    }
  }
}

struct cold_result {
  tally miss, hit;
  std::uint64_t keys_issued = 0;
  std::uint64_t keys_refined = 0;
};

void run_arrivals(const std::string& socket_path,
                  const std::vector<std::string>& cold,
                  clock_type::time_point deadline, int poll_ms,
                  cold_result& result) {
  for (const std::string& request : cold) {
    if (clock_type::now() >= deadline) {
      break;
    }
    ++result.keys_issued;
    for (bool first = true;; first = false) {
      const auto t0 = clock_type::now();
      const std::string reply = call(socket_path, request);
      const auto t1 = clock_type::now();
      const bool hit = contains(reply, "\"hit\":true");
      (hit ? result.hit : result.miss).ns.push_back(elapsed_ns(t0, t1));
      if (!contains(reply, "\"ok\":true") ||
          contains(reply, "\"unrefinable\":true") ||
          contains(reply, "\"dropped\":true") ||
          (first && !contains(reply, "\"enqueued\":true"))) {
        ++result.miss.errors;
        report_error(first && hit ? "cold key hit before it was tuned"
                                  : "bad cold reply",
                     reply);
        break;
      }
      if (hit) {
        ++result.keys_refined;
        break;
      }
      if (t1 >= deadline) {
        break;  // still refining when the run ends: not a failure
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
}

/// The plan's requests again, all on one connection.
tally run_reused(const std::string& socket_path,
                 const std::vector<plan_line>& plan, int requests) {
  tally result;
  try {
    atf::service::service_client client(socket_path);
    for (int i = 0; i < requests; ++i) {
      const plan_line& line = plan[static_cast<std::size_t>(i) % plan.size()];
      const auto t0 = clock_type::now();
      const std::string reply = client.round_trip(line.request);
      result.ns.push_back(elapsed_ns(t0, clock_type::now()));
      if (reply != line.expected) {
        ++result.errors;
        report_error("warm reply differs on a reused connection", reply);
      }
    }
  } catch (const std::exception& error) {
    ++result.errors;
    report_error("reused connection failed", error.what());
  }
  return result;
}

/// "[count, p50, p90, p99]" of a sample in nanoseconds (nearest rank).
std::string summary(std::vector<std::int64_t> ns) {
  if (ns.empty()) {
    return "[0,0,0,0]";
  }
  std::sort(ns.begin(), ns.end());
  auto rank = [&](double q) {
    const auto i = static_cast<std::size_t>(q * static_cast<double>(ns.size()));
    return ns[std::min(i, ns.size() - 1)];
  };
  char out[96];
  std::snprintf(out, sizeof(out), "[%zu,%lld,%lld,%lld]", ns.size(),
                static_cast<long long>(rank(0.50)),
                static_cast<long long>(rank(0.90)),
                static_cast<long long>(rank(0.99)));
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: loadgen --socket PATH --seconds S --callers C "
               "--plan FILE --cold FILE --poll-ms P --reused N\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, plan_path, cold_path;
  double seconds = 0.0;
  int callers = 0, poll_ms = 0, reused = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--socket") {
      socket_path = value;
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--callers") {
      callers = std::atoi(value);
    } else if (flag == "--plan") {
      plan_path = value;
    } else if (flag == "--cold") {
      cold_path = value;
    } else if (flag == "--poll-ms") {
      poll_ms = std::atoi(value);
    } else if (flag == "--reused") {
      reused = std::atoi(value);
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || socket_path.empty() || plan_path.empty() ||
      cold_path.empty() || seconds <= 0.0 || callers <= 0 || poll_ms <= 0 ||
      reused < 0) {
    usage();
  }
  // A daemon that dies mid-reply must show up as a failed request, not
  // kill the load generator.
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<plan_line> plan;
  {
    std::ifstream in(plan_path);
    for (std::string line; std::getline(in, line);) {
      const auto tab = line.find('\t');
      if (tab == std::string::npos) {
        std::fprintf(stderr, "loadgen: bad plan line: %s\n", line.c_str());
        return 1;
      }
      plan.push_back({line.substr(0, tab), line.substr(tab + 1)});
    }
  }
  std::vector<std::string> cold;
  {
    std::ifstream in(cold_path);
    for (std::string line; std::getline(in, line);) {
      cold.push_back(line);
    }
  }
  if (plan.empty()) {
    std::fprintf(stderr, "loadgen: empty plan\n");
    return 1;
  }

  const auto start = clock_type::now();
  const auto deadline =
      start + std::chrono::duration_cast<clock_type::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<tally> results(static_cast<std::size_t>(callers));
  cold_result arrivals;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
      const std::size_t offset =
          plan.size() * static_cast<std::size_t>(c) /
          static_cast<std::size_t>(callers);
      threads.emplace_back(run_callers, std::cref(socket_path),
                           std::cref(plan), offset, deadline,
                           std::ref(results[static_cast<std::size_t>(c)]));
    }
    threads.emplace_back(run_arrivals, std::cref(socket_path), std::cref(cold),
                         deadline, poll_ms, std::ref(arrivals));
    for (auto& thread : threads) {
      thread.join();
    }
  }
  const double elapsed_s =
      static_cast<double>(elapsed_ns(start, clock_type::now())) / 1e9;
  const tally reused_tally = run_reused(socket_path, plan, reused);

  tally warm, all;
  for (const auto& r : results) {
    warm.merge(r);
  }
  all.merge(warm);
  all.merge(arrivals.miss);
  all.merge(arrivals.hit);

  std::printf(
      "{\"elapsed_s\":%.6f,\"requests\":%zu,\"errors\":%llu,"
      "\"all\":%s,\"warm\":%s,\"cold_miss\":%s,\"cold_hit\":%s,"
      "\"cold_keys\":%llu,\"cold_refined\":%llu,\"reused\":%s,"
      "\"reused_errors\":%llu}\n",
      elapsed_s, all.ns.size(), static_cast<unsigned long long>(all.errors),
      summary(all.ns).c_str(), summary(warm.ns).c_str(),
      summary(arrivals.miss.ns).c_str(), summary(arrivals.hit.ns).c_str(),
      static_cast<unsigned long long>(arrivals.keys_issued),
      static_cast<unsigned long long>(arrivals.keys_refined),
      summary(reused_tally.ns).c_str(),
      static_cast<unsigned long long>(reused_tally.errors));
  return 0;
}
