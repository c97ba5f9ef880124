// atf_served — the tuning-as-a-service daemon (DESIGN.md §13).
//
//   atf_served --socket /tmp/atf.sock --journal-dir ./journals
//              [--device K20m] [--technique opentuner|annealing|surrogate|
//              random|exhaustive] [--refine-step N] [--seed N]
//              [--max-pending N] [--batch N] [--merge-from DIR]
//              [--compact-on-start] [--compact-on-exit] [--no-refiner]
//
// Answers "best configuration for (kernel, device, size)" over a Unix
// domain socket: one JSON request line in, one JSON reply line out (see
// atf/service/protocol.hpp). Hits are answered with reply bytes built
// when an immutable snapshot is published; the snapshot is rebuilt from
// per-key crash-safe journals. Misses go on a bounded dedup queue drained
// by a background thread that runs a journaled, warm-started tune on the
// simulated device. Every kernel-registry
// family (xgemm, saxpy, reduce, conv2d, stencil2d, spmv, batched_gemm, ...)
// is refined through atf::kernels::registry::tune with the same progressive
// budget and per-key seeds. Every answer the daemon ever gives survives
// SIGKILL: restart with the same --journal-dir and the same queries return
// bit-identical reply lines.
//
//   --refine-step N     fresh evaluations added per refinement pass; each
//                       pass resumes the key's journal, so repeated misses
//                       keep deepening the search (default 200)
//   --merge-from DIR    fold another daemon's journal directory into this
//                       one before serving (content-hash dedup, the
//                       supersedes total order breaks ties)
//   --compact-on-start  rewrite superseded-heavy journals before serving
//   --compact-on-exit   ... and after the drain on SIGTERM/SIGINT
//   --no-refiner        serve snapshots only; misses are enqueued but
//                       never refined (CI uses this for determinism)
//
// SIGTERM/SIGINT drain: stop accepting, finish in-flight replies and the
// in-flight refinement (journal appends are never torn), then exit 0.
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define ATF_SERVED_HAVE_UNIX 1
#endif

#include "atf/common/hash.hpp"
#include "atf/kernels/registry.hpp"
#include "atf/service/service.hpp"
#include "atf/service/socket_server.hpp"
#include "atf/session/journal.hpp"
#include "ocls/ocls.hpp"

namespace {

struct served_options {
  std::string socket_path;
  std::string journal_dir;
  std::string device = "K20m";
  std::string technique = "opentuner";
  std::uint64_t refine_step = 200;
  std::uint64_t seed = 0x5eed;
  std::size_t max_pending = 64;
  std::size_t batch = 4;
  std::string merge_from;
  bool compact_on_start = false;
  bool compact_on_exit = false;
  bool no_refiner = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH --journal-dir DIR\n"
      "          [--device NAME] [--technique opentuner|annealing|surrogate|"
      "random|exhaustive]\n"
      "          [--refine-step N] [--seed N] [--max-pending N] [--batch N]\n"
      "          [--merge-from DIR] [--compact-on-start] [--compact-on-exit]\n"
      "          [--no-refiner]\n",
      argv0);
}

bool parse_u64_flag(const char* flag, const char* text, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  // strtoull skips leading whitespace and wraps a '-' after it, so the
  // first character itself must be a digit.
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr,
                 "atf_served: %s expects a non-negative integer, got '%s'\n",
                 flag, text);
    return false;
  }
  out = value;
  return true;
}

std::optional<served_options> parse_cli(int argc, char** argv) {
  served_options opts;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "atf_served: missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    std::uint64_t parsed = 0;
    if (flag == "--socket" && (value = need_value(i))) {
      opts.socket_path = value;
    } else if (flag == "--journal-dir" && (value = need_value(i))) {
      opts.journal_dir = value;
    } else if (flag == "--device" && (value = need_value(i))) {
      opts.device = value;
    } else if (flag == "--technique" && (value = need_value(i))) {
      opts.technique = value;
    } else if (flag == "--refine-step" && (value = need_value(i))) {
      if (!parse_u64_flag("--refine-step", value, opts.refine_step)) {
        return std::nullopt;
      }
    } else if (flag == "--seed" && (value = need_value(i))) {
      if (!parse_u64_flag("--seed", value, opts.seed)) {
        return std::nullopt;
      }
    } else if (flag == "--max-pending" && (value = need_value(i))) {
      if (!parse_u64_flag("--max-pending", value, parsed)) {
        return std::nullopt;
      }
      opts.max_pending = static_cast<std::size_t>(parsed);
    } else if (flag == "--batch" && (value = need_value(i))) {
      if (!parse_u64_flag("--batch", value, parsed)) {
        return std::nullopt;
      }
      opts.batch = static_cast<std::size_t>(parsed);
    } else if (flag == "--merge-from" && (value = need_value(i))) {
      opts.merge_from = value;
    } else if (flag == "--compact-on-start") {
      opts.compact_on_start = true;
    } else if (flag == "--compact-on-exit") {
      opts.compact_on_exit = true;
    } else if (flag == "--no-refiner") {
      opts.no_refiner = true;
    } else {
      std::fprintf(stderr, "atf_served: unknown or incomplete option '%s'\n",
                   flag.c_str());
      return std::nullopt;
    }
  }
  if (opts.socket_path.empty() || opts.journal_dir.empty()) {
    return std::nullopt;
  }
  return opts;
}

std::string known_kernel_names() {
  std::string joined;
  for (const auto& name : atf::kernels::registry::names()) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += name;
  }
  return joined;
}

#if ATF_SERVED_HAVE_UNIX
// Self-pipe: the signal handler writes one byte, main blocks on read().
int signal_pipe[2] = {-1, -1};
volatile sig_atomic_t received_signal = 0;

extern "C" void on_terminate(int signum) {
  received_signal = signum;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(signal_pipe[1], &byte, 1);
}
#endif

}  // namespace

int main(int argc, char** argv) {
#if !ATF_SERVED_HAVE_UNIX
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "atf_served: requires a Unix platform\n");
  return 1;
#else
  const auto opts = parse_cli(argc, argv);
  if (!opts.has_value()) {
    usage(argv[0]);
    return 1;
  }
  try {
    (void)atf::kernels::registry::make_technique(opts->technique, 0);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "atf_served: %s\n", error.what());
    return 1;
  }

  try {
    std::filesystem::create_directories(opts->journal_dir);

    // The refine backend: a journaled, warm-started tune on the simulated
    // device. The budget is progressive — existing journal records plus one
    // refine step — so every pass deepens the search and a restarted daemon
    // continues where the killed one stopped.
    ocls::device device = ocls::find_device("", opts->device);
    const std::string device_name = device.name();
    const std::string technique_name = opts->technique;
    const std::uint64_t base_seed = opts->seed;
    const std::uint64_t refine_step = opts->refine_step;

    auto refine = [device, technique_name, base_seed, refine_step](
                      const atf::service::service_key& key,
                      const std::string& journal_path) {
      const std::size_t existing =
          atf::session::read_journal(journal_path).records.size();
      // Deterministic per-key seed: different keys explore differently,
      // the same key resumes identically after a restart.
      const std::uint64_t key_seed =
          base_seed ^ atf::common::fnv1a(key.to_string());

      const auto* family = atf::kernels::registry::find(key.kernel);
      if (family == nullptr) {
        return false;  // validate() should have rejected this
      }
      try {
        const auto size = atf::kernels::registry::input_size::parse(key.size);
        atf::kernels::registry::tune_settings settings;
        settings.technique = technique_name;
        settings.evaluations = existing + refine_step;
        settings.seed = key_seed;
        settings.journal = journal_path;
        (void)atf::kernels::registry::tune(*family, size, device, settings);
      } catch (const std::exception&) {
        return false;  // empty space / degenerate size: nothing to journal
      }
      return true;
    };

    auto validate = [device, device_name](
                        const atf::service::service_key& key) -> std::string {
      const auto* family = atf::kernels::registry::find(key.kernel);
      if (family == nullptr) {
        return "unknown kernel '" + key.kernel + "' (this daemon tunes: " +
               known_kernel_names() + ")";
      }
      // Same substring semantics as ocls::find_device: "K20m" matches the
      // canonical "Tesla K20m". The key keeps the client's spelling — two
      // spellings are two keys, each with its own journal.
      if (key.device.empty() ||
          device_name.find(key.device) == std::string::npos) {
        return "foreign device '" + key.device + "' (this daemon tunes '" +
               device_name + "')";
      }
      // Each family validates through its own space builder: wrong
      // dimension counts and degenerate extents are rejected here, before
      // the key can occupy a refinement slot.
      try {
        const auto size = atf::kernels::registry::input_size::parse(key.size);
        (void)family->make_groups(size, device.profile());
      } catch (const std::exception& error) {
        return "bad size '" + key.size + "' for kernel '" + key.kernel +
               "' (expected " + family->dim_names + "): " + error.what();
      }
      return {};
    };

    atf::service::service_options sopts;
    sopts.journal_dir = opts->journal_dir;
    sopts.max_pending = opts->max_pending;
    sopts.refine_batch = opts->batch;
    atf::service::tuning_service service(sopts, refine, validate);

    const std::size_t loaded = service.load();
    std::fprintf(stderr, "atf_served: loaded %zu key(s) from '%s'\n", loaded,
                 opts->journal_dir.c_str());

    if (!opts->merge_from.empty()) {
      std::size_t merged_keys = 0;
      for (const auto& entry :
           std::filesystem::directory_iterator(opts->merge_from)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".jsonl") {
          continue;
        }
        const auto key = atf::service::service_key::from_file_stem(
            entry.path().stem().string());
        if (!key.has_value()) {
          std::fprintf(stderr, "atf_served: skipping foreign file '%s'\n",
                       entry.path().string().c_str());
          continue;
        }
        const auto stats =
            service.merge_journal(*key, entry.path().string());
        ++merged_keys;
        std::fprintf(stderr,
                     "atf_served: merged '%s': %zu added, %zu superseded, "
                     "%zu ignored\n",
                     key->to_string().c_str(), stats.added, stats.superseded,
                     stats.ignored);
      }
      std::fprintf(stderr, "atf_served: merged %zu key(s) from '%s'\n",
                   merged_keys, opts->merge_from.c_str());
    }

    if (opts->compact_on_start) {
      std::fprintf(stderr, "atf_served: compacted %zu journal(s)\n",
                   service.compact_all());
    }

    if (::pipe(signal_pipe) != 0) {
      std::fprintf(stderr, "atf_served: pipe() failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    std::signal(SIGTERM, on_terminate);
    std::signal(SIGINT, on_terminate);
    std::signal(SIGPIPE, SIG_IGN);  // a client vanishing mid-reply is normal

    if (!opts->no_refiner) {
      service.start();
    }
    atf::service::socket_server server(
        opts->socket_path,
        [&service](const std::string& line) {
          return service.handle_line(line);
        });
    server.start();
    std::fprintf(stderr, "atf_served: serving on '%s'\n",
                 opts->socket_path.c_str());

    // Block until SIGTERM/SIGINT.
    char byte = 0;
    while (::read(signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.stop();    // finish in-flight replies, close the socket
    std::fprintf(stderr,
                 "atf_served: signal %d, drained; %llu connection(s) "
                 "accepted over %zu poll loops, %llu refused at the cap of "
                 "%zu\n",
                 static_cast<int>(received_signal),
                 static_cast<unsigned long long>(
                     server.connections_accepted()),
                 server.poll_loops(),
                 static_cast<unsigned long long>(server.connections_refused()),
                 atf::service::socket_server::max_connections);
    service.stop();   // finish the in-flight refinement
    if (opts->compact_on_exit) {
      std::fprintf(stderr, "atf_served: compacted %zu journal(s)\n",
                   service.compact_all());
    }
    const auto final_stats = service.stats();
    std::fprintf(stderr,
                 "atf_served: served %llu request(s), %llu hit(s), %llu "
                 "refine(s), %llu dropped\n",
                 static_cast<unsigned long long>(final_stats.requests),
                 static_cast<unsigned long long>(final_stats.hits),
                 static_cast<unsigned long long>(final_stats.refines),
                 static_cast<unsigned long long>(
                     final_stats.dropped_refinements));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atf_served: %s\n", error.what());
    return 1;
  }
  return 0;
#endif
}
