// Per-layer probe: times the library layers one benchmark operation passes
// through, in-process, so a traced benchmark run can say where the time of
// an end-to-end operation went. Every timed region is a call into one layer,
// measured from outside it with std::chrono::steady_clock; nothing inside
// the library is instrumented.
//
//   layers tune --kernel K --size S --device D --technique T
//               --evaluations N --seed X --repeats R --scratch DIR
//               [--base-journal FILE]
//   layers serve --journal-dir DIR --requests FILE --repeats R
//
// tune: R times, the tune that `atf_tune --kernel` runs (registry::tune,
//   with a cost factory that times each call), split into
//   * space generation (tuner::space() on a separate tuner),
//   * the cost function, i.e. one analytic ocls model launch per measured
//     evaluation (timed around each call),
//   * the rest of the tune minus generation and the cost function:
//     evaluation engine plus search technique, once with the workload's
//     technique and once with random search (the cheapest technique, so
//     mostly engine),
//   * the same random tune journaling to a fresh session journal; the extra
//     time over the unjournaled tune is the journal append,
//   * with --base-journal, opening a copy of that journal
//     (tuning_session::open: read + store rebuild).
// serve: loads a daemon's journal directory into an in-process
//   tuning_service (no socket, no refiner) and answers each request line of
//   FILE ("request<TAB>expected reply") R times through handle_line, which
//   is the daemon's whole hit path minus the transport. Every reply must be
//   byte-identical to the expected one.
//
// Prints one JSON object with the medians over the repeats; exits 1 on any
// error or mismatch.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "atf/kernels/registry.hpp"
#include "atf/service/service.hpp"
#include "atf/session/session.hpp"
#include "atf/tuner.hpp"
#include "ocls/ocls.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
namespace reg = atf::kernels::registry;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument '" + flag + "'");
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& need(const std::map<std::string, std::string>& flags,
                        const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) {
    throw std::invalid_argument("missing --" + name);
  }
  return it->second;
}

/// One timed tune: total, generation and cost-function time.
struct tune_split {
  double generation_s = 0.0;
  double total_s = 0.0;
  double cost_s = 0.0;
  std::uint64_t cost_calls = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t failed = 0;

  /// Everything but generation and the cost function: engine + technique.
  [[nodiscard]] double search_s() const {
    return total_s - generation_s - cost_s;
  }
  /// Evaluations served from the evaluation cache, without a cost call.
  [[nodiscard]] std::uint64_t cached() const { return evaluations - cost_calls; }
};

/// Runs registry::tune with a cost factory that times every cost call, and
/// times generating the same space on a separate tuner.
tune_split timed_tune(const reg::entry& entry, const reg::input_size& size,
                      const ocls::device& dev,
                      const reg::tune_settings& settings) {
  tune_split split;
  {
    atf::tuner t;
    t.tuning_parameters(entry.make_groups(size, dev.profile()));
    const auto start = clock_type::now();
    (void)t.space();
    split.generation_s = seconds_since(start);
  }

  reg::entry timed = entry;
  timed.make_cost = [&split, make = entry.make_cost](
                        const reg::input_size& s, const ocls::device& d) {
    return [&split, cost = make(s, d)](const atf::configuration& config) {
      // Adds the call's duration whether it returns or throws (an invalid
      // launch surfaces as atf::evaluation_error).
      struct stopwatch {
        tune_split& into;
        clock_type::time_point start = clock_type::now();
        ~stopwatch() {
          into.cost_s += seconds_since(start);
          ++into.cost_calls;
        }
      } watch{split};
      return cost(config);
    };
  };
  const auto start = clock_type::now();
  const reg::tune_outcome result = reg::tune(timed, size, dev, settings);
  split.total_s = seconds_since(start);
  split.evaluations = result.evaluations;
  split.failed = result.failed_evaluations;
  return split;
}

int run_tune(const std::map<std::string, std::string>& flags) {
  const reg::entry* entry = reg::find(need(flags, "kernel"));
  if (entry == nullptr) {
    throw std::invalid_argument("unknown kernel " + need(flags, "kernel"));
  }
  const auto size = reg::input_size::parse(need(flags, "size"));
  const ocls::device dev = ocls::find_device("", need(flags, "device"));
  const std::string technique = need(flags, "technique");
  const std::size_t evaluations = std::stoul(need(flags, "evaluations"));
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const int repeats = std::stoi(need(flags, "repeats"));
  const std::filesystem::path scratch = need(flags, "scratch");
  const auto base = flags.find("base-journal");

  std::vector<double> generation_ms, cost_us, engine_us, search_us,
      journal_us, journal_open_ms, duplicate_ratio, failed_ratio;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(r);
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);

    const tune_split own =
        timed_tune(*entry, size, dev, {technique, evaluations, run_seed, ""});
    const tune_split plain =
        timed_tune(*entry, size, dev, {"random", evaluations, run_seed, ""});
    const tune_split journaled =
        timed_tune(*entry, size, dev,
                   {"random", evaluations, run_seed,
                    (scratch / "fresh.jsonl").string()});
    if (journaled.cost_calls != plain.cost_calls) {
      throw std::runtime_error("journaled tune measured a different set");
    }
    generation_ms.push_back(own.generation_s * 1e3);
    cost_us.push_back(own.cost_s / static_cast<double>(own.cost_calls) * 1e6);
    search_us.push_back(own.search_s() /
                        static_cast<double>(own.evaluations) * 1e6);
    engine_us.push_back(plain.search_s() /
                        static_cast<double>(plain.evaluations) * 1e6);
    journal_us.push_back((journaled.search_s() - plain.search_s()) /
                         static_cast<double>(plain.evaluations) * 1e6);
    duplicate_ratio.push_back(static_cast<double>(own.cached()) /
                              static_cast<double>(own.evaluations));
    failed_ratio.push_back(static_cast<double>(own.failed) /
                           static_cast<double>(own.evaluations));
    if (base != flags.end()) {
      const auto copy = scratch / "resumed.jsonl";
      std::filesystem::copy_file(base->second, copy);
      const auto start = clock_type::now();
      (void)atf::session::tuning_session::open(copy.string());
      journal_open_ms.push_back(seconds_since(start) * 1e3);
    }
  }
  std::filesystem::remove_all(scratch);

  std::printf(
      "{\"generation_ms\":%.6f,\"cost_us_per_eval\":%.6f,"
      "\"engine_us_per_eval\":%.6f,\"search_us_per_eval\":%.6f,"
      "\"journal_us_per_eval\":%.6f,\"journal_open_ms\":%.6f,"
      "\"duplicate_ratio\":%.6f,\"failed_ratio\":%.6f}\n",
      median(generation_ms), median(cost_us), median(engine_us),
      median(search_us), median(journal_us), median(journal_open_ms),
      median(duplicate_ratio), median(failed_ratio));
  return 0;
}

int run_serve(const std::map<std::string, std::string>& flags) {
  const int repeats = std::stoi(need(flags, "repeats"));
  std::vector<std::pair<std::string, std::string>> requests;
  {
    std::ifstream in(need(flags, "requests"));
    for (std::string line; std::getline(in, line);) {
      const auto tab = line.find('\t');
      if (tab == std::string::npos) {
        throw std::invalid_argument("bad request line: " + line);
      }
      requests.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
  }
  if (requests.empty()) {
    throw std::invalid_argument("no requests");
  }

  std::vector<double> load_ms, handle_us;
  for (int r = 0; r < repeats; ++r) {
    atf::service::service_options opts;
    opts.journal_dir = need(flags, "journal-dir");
    atf::service::tuning_service service(
        opts, [](const atf::service::service_key&, const std::string&) {
          return false;
        });
    auto start = clock_type::now();
    service.load();
    load_ms.push_back(seconds_since(start) * 1e3);

    for (const auto& [request, expected] : requests) {
      start = clock_type::now();
      const std::string reply = service.handle_line(request);
      handle_us.push_back(seconds_since(start) * 1e6);
      if (reply != expected) {
        throw std::runtime_error("in-process reply differs: " + reply);
      }
    }
  }
  std::printf("{\"load_ms\":%.6f,\"handle_us\":%.6f}\n", median(load_ms),
              median(handle_us));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    if (mode == "tune") {
      return run_tune(flags);
    }
    if (mode == "serve") {
      return run_serve(flags);
    }
    std::fprintf(stderr, "usage: layers tune|serve --flag value ...\n");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "layers: %s\n", error.what());
  }
  return 1;
}
