// atf_tune — command-line auto-tuner for arbitrary programs, driving
// ATF's generic program cost function (paper, Section II Step 2).
//
//   atf_tune --source app.c --compile ./compile.sh --run ./run.sh \
//            [--log-file cost.log] \
//            --param "BLOCK=interval:1:64" \
//            --param "BLOCK2=interval:1:64:divides=BLOCK" \
//            --param "UNROLL=set:1,2,4,8" \
//            [--technique exhaustive|annealing|opentuner|surrogate|random] \
//            [--evaluations N] [--seconds S] [--seed N] [--csv out.csv] \
//            [--space-storage dense|packed|lazy] [--chunk-cache-mb N]
//
// GEMM grid mode (multi-size dispatch, DESIGN.md §12): instead of tuning a
// program, grid-tune the built-in XgemmDirect kernel over a problem-size
// grid and persist the winners in a tuning database:
//
//   atf_tune --size-grid "32,128x32,128x32,64" --db tuning.tsv \
//            [--device NAME] [--journal-dir DIR] \
//            [--technique opentuner|annealing|surrogate|random] \
//            [--evaluations N] [--seed N]
//
// The grid is tuned through the kernel registry's xgemm family, the same
// driver as kernel registry mode below.
//
// Kernel registry mode (DESIGN.md §14): tune any registered kernel family
// on a simulated device and verify the winner against the family's scalar
// reference:
//
//   atf_tune --list-kernels
//   atf_tune --kernel stencil2d [--size 66x66x1] [--device NAME] \
//            [--technique T] [--evaluations N] [--seed N] [--journal-dir D]
//
// Parameter specs:
//   NAME=interval:LO:HI[:divides=OTHER|:multiple-of=OTHER|:pow2]
//   NAME=set:v1,v2,...
// Constraints may reference any parameter declared EARLIER on the command
// line, exactly like ATF programs. Prints the best configuration as
// NAME=VALUE pairs on stdout and exits 0; exits 1 on usage errors, 2 when
// no valid configuration was found.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atf/atf.hpp"
#include "atf/cf/program.hpp"
#include "atf/common/string_utils.hpp"
#include "atf/kernels/registry.hpp"
#include "atf/service/client.hpp"
#include "blasmini/dispatch.hpp"

namespace {

// Strict numeric flag parsing: every conversion is end-pointer-checked so
// garbage like "--seconds abc" (which strtod silently turned into 0.0,
// making the tune exit immediately) errors out naming the offending flag.

bool parse_u64_flag(const char* flag, const char* text, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "atf_tune: %s expects a non-negative integer, got '%s'\n",
                 flag, text);
    return false;
  }
  out = value;
  return true;
}

bool parse_seconds_flag(const char* flag, const char* text, double& out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || errno == ERANGE || !(value >= 0.0)) {
    std::fprintf(stderr,
                 "atf_tune: %s expects a non-negative number of seconds, "
                 "got '%s'\n",
                 flag, text);
    return false;
  }
  out = value;
  return true;
}

std::optional<std::int64_t> parse_i64(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(value);
}

struct cli_options {
  std::string source;
  std::string compile;
  std::string run;
  std::string log_file;
  std::string csv;
  std::string technique = "exhaustive";
  std::string space_storage = "dense";
  std::optional<std::size_t> chunk_cache_mb;
  std::vector<std::string> params;
  std::optional<std::uint64_t> evaluations;
  std::optional<double> seconds;
  std::uint64_t seed = 0x5eed;
  // GEMM grid mode
  std::string size_grid;
  std::string db_path;
  std::string device = "K20m";
  std::string journal_dir;
  // Service client mode
  std::string serve_socket;
  std::string query;
  bool serve_stats = false;
  // Kernel registry mode (also reuses --kernel in serve mode; empty means
  // "xgemm" there)
  std::string kernel;
  std::string size;
  bool list_kernels = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --source FILE --compile SCRIPT --run SCRIPT\n"
      "          --param \"NAME=interval:LO:HI[:divides=P|:multiple-of=P|"
      ":pow2]\"\n"
      "          --param \"NAME=set:v1,v2,...\"  [...]\n"
      "          [--log-file FILE] [--technique exhaustive|annealing|"
      "opentuner|surrogate|random]\n"
      "          [--evaluations N] [--seconds S] [--seed N] [--csv FILE]\n"
      "          [--space-storage dense|packed|lazy] [--chunk-cache-mb N]\n"
      "\n"
      "  --space-storage   how the generated search space stores its nodes:\n"
      "                    dense (default) plain arrays; packed bit-packed\n"
      "                    arrays, 3-8x smaller; lazy keeps only per-chunk\n"
      "                    summaries and regenerates subtrees on demand into\n"
      "                    a bounded cache -- for spaces too large for RAM.\n"
      "                    All backends tune bit-identically.\n"
      "  --chunk-cache-mb  lazy only: budget of the regenerated-chunk cache\n"
      "                    in MiB (default 64).\n"
      "\n"
      "GEMM grid mode:\n"
      "       %s --size-grid \"32,128x32,128x32,64\" --db tuning.tsv\n"
      "          [--device NAME] [--journal-dir DIR] [--technique T]\n"
      "          [--evaluations N] [--seed N]\n"
      "  Grid-tunes the registry's xgemm family (XgemmDirect) over the size\n"
      "  grid on a simulated device and stores the winners in the tuning\n"
      "  database (loaded first if it exists, so runs accumulate). --journal-dir\n"
      "  makes the grid tune crash-safe and warm-startable.\n"
      "\n"
      "Kernel registry mode (tunes a registered kernel family):\n"
      "       %s --list-kernels\n"
      "       %s --kernel NAME [--size DIMS] [--device NAME] [--technique T]\n"
      "          [--evaluations N] [--seed N] [--journal-dir DIR]\n"
      "  --list-kernels prints every registered family (name, size form,\n"
      "  knob count, constraint shape). --kernel tunes one family on the\n"
      "  simulated device, verifies the winner against the family's scalar\n"
      "  reference and prints it as NAME=VALUE lines. An unknown kernel\n"
      "  name lists the registry and exits 2.\n"
      "\n"
      "Service client mode (queries a running atf_served daemon):\n"
      "       %s --serve SOCKET --query MxNxK [--kernel NAME] "
      "[--device NAME]\n"
      "       %s --serve SOCKET --stats\n"
      "  A hit prints the tuned configuration as NAME=VALUE lines and exits\n"
      "  0; a miss (tuning was enqueued on the daemon) exits 3. --stats\n"
      "  prints the daemon's counters.\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
}

std::optional<cli_options> parse_cli(int argc, char** argv) {
  cli_options opts;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "atf_tune: missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    if (flag == "--source" && (value = need_value(i))) {
      opts.source = value;
    } else if (flag == "--compile" && (value = need_value(i))) {
      opts.compile = value;
    } else if (flag == "--run" && (value = need_value(i))) {
      opts.run = value;
    } else if (flag == "--log-file" && (value = need_value(i))) {
      opts.log_file = value;
    } else if (flag == "--csv" && (value = need_value(i))) {
      opts.csv = value;
    } else if (flag == "--technique" && (value = need_value(i))) {
      opts.technique = value;
    } else if (flag == "--space-storage" && (value = need_value(i))) {
      opts.space_storage = value;
    } else if (flag == "--chunk-cache-mb" && (value = need_value(i))) {
      std::uint64_t parsed = 0;
      if (!parse_u64_flag("--chunk-cache-mb", value, parsed)) {
        return std::nullopt;
      }
      opts.chunk_cache_mb = static_cast<std::size_t>(parsed);
    } else if (flag == "--param" && (value = need_value(i))) {
      opts.params.emplace_back(value);
    } else if (flag == "--evaluations" && (value = need_value(i))) {
      std::uint64_t parsed = 0;
      if (!parse_u64_flag("--evaluations", value, parsed)) {
        return std::nullopt;
      }
      opts.evaluations = parsed;
    } else if (flag == "--seconds" && (value = need_value(i))) {
      double parsed = 0.0;
      if (!parse_seconds_flag("--seconds", value, parsed)) {
        return std::nullopt;
      }
      opts.seconds = parsed;
    } else if (flag == "--seed" && (value = need_value(i))) {
      if (!parse_u64_flag("--seed", value, opts.seed)) {
        return std::nullopt;
      }
    } else if (flag == "--size-grid" && (value = need_value(i))) {
      opts.size_grid = value;
    } else if (flag == "--db" && (value = need_value(i))) {
      opts.db_path = value;
    } else if (flag == "--device" && (value = need_value(i))) {
      opts.device = value;
    } else if (flag == "--journal-dir" && (value = need_value(i))) {
      opts.journal_dir = value;
    } else if (flag == "--serve" && (value = need_value(i))) {
      opts.serve_socket = value;
    } else if (flag == "--query" && (value = need_value(i))) {
      opts.query = value;
    } else if (flag == "--kernel" && (value = need_value(i))) {
      opts.kernel = value;
    } else if (flag == "--size" && (value = need_value(i))) {
      opts.size = value;
    } else if (flag == "--list-kernels") {
      opts.list_kernels = true;
    } else if (flag == "--stats") {
      opts.serve_stats = true;
    } else {
      std::fprintf(stderr, "atf_tune: unknown or incomplete option '%s'\n",
                   flag.c_str());
      return std::nullopt;
    }
  }
  if (!opts.serve_socket.empty()) {
    if (opts.query.empty() && !opts.serve_stats) {
      std::fprintf(stderr,
                   "atf_tune: --serve requires --query or --stats\n");
      return std::nullopt;
    }
    return opts;  // other modes' flags are not required
  }
  if (!opts.size_grid.empty()) {
    if (opts.db_path.empty()) {
      std::fprintf(stderr, "atf_tune: --size-grid requires --db\n");
      return std::nullopt;
    }
    return opts;  // program-mode flags are not required
  }
  if (opts.list_kernels || !opts.kernel.empty()) {
    return opts;  // registry mode needs nothing else
  }
  if (opts.source.empty() || opts.compile.empty() || opts.run.empty() ||
      opts.params.empty()) {
    return std::nullopt;
  }
  return opts;
}

/// Service client mode: query a running atf_served daemon. Exit codes:
/// 0 hit (configuration printed), 3 miss (refinement enqueued on the
/// daemon — retry shortly), 1 anything else.
int run_serve_client_mode(const cli_options& opts) {
  try {
    atf::service::service_client client(opts.serve_socket);
    if (opts.serve_stats) {
      const auto stats = client.stats();
      if (!stats.ok) {
        std::fprintf(stderr, "atf_tune: daemon error: %s\n",
                     stats.error.c_str());
        return 1;
      }
      for (const auto& [name, value] : stats.counters) {
        std::printf("%s=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
      return 0;
    }

    atf::service::service_key key;
    key.kernel = opts.kernel.empty() ? "xgemm" : opts.kernel;
    key.device = opts.device;
    key.size = opts.query;
    const auto reply = client.get(key);
    if (!reply.ok) {
      std::fprintf(stderr, "atf_tune: daemon error: %s\n",
                   reply.error.c_str());
      return 1;
    }
    if (!reply.hit) {
      if (reply.unrefinable) {
        std::fprintf(stderr,
                     "atf_tune: miss for %s — the daemon cannot tune this "
                     "key\n",
                     key.to_string().c_str());
      } else {
        std::fprintf(
            stderr,
            "atf_tune: miss for %s — refinement %s, retry shortly\n",
            key.to_string().c_str(),
            reply.dropped ? "dropped (daemon queue full)"
                          : (reply.enqueued ? "enqueued" : "already queued"));
      }
      return 3;
    }
    std::fprintf(stderr, "atf_tune: hit for %s, scalar %.17g over %llu "
                         "configuration(s)\n",
                 key.to_string().c_str(), reply.scalar,
                 static_cast<unsigned long long>(reply.configs));
    for (const auto& [name, value] : reply.config) {
      std::printf("%s=%s\n", name.c_str(), value.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return 1;
  }
}

/// --list-kernels: prints the registry table.
int run_list_kernels_mode() {
  std::printf("%-14s %-10s %-14s %-6s %s\n", "KERNEL", "SIZE", "DEFAULT",
              "KNOBS", "CONSTRAINTS");
  for (const auto& e : atf::kernels::registry::all()) {
    std::printf("%-14s %-10s %-14s %-6zu %s\n", e.name.c_str(),
                e.dim_names.c_str(), e.default_size.to_string().c_str(),
                e.knob_count, e.constraint_summary.c_str());
  }
  return 0;
}

void print_registry(std::FILE* out) {
  for (const auto& e : atf::kernels::registry::all()) {
    std::fprintf(out, "  %-14s --size %s (default %s) — %s\n", e.name.c_str(),
                 e.dim_names.c_str(), e.default_size.to_string().c_str(),
                 e.description.c_str());
  }
}

/// True when the registry's technique factory knows `name`; otherwise
/// explains on stderr (naming the valid set).
bool known_technique(const std::string& name) {
  try {
    (void)atf::kernels::registry::make_technique(name, 0);
    return true;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return false;
  }
}

/// Kernel registry mode: tune one registered family, verify the winner
/// against the family reference, print it. Exit codes: 0 success, 1 error
/// or reference mismatch, 2 unknown kernel / no valid configuration.
int run_registry_mode(const cli_options& opts) {
  namespace reg = atf::kernels::registry;
  const reg::entry* entry = reg::find(opts.kernel);
  if (entry == nullptr) {
    std::fprintf(stderr,
                 "atf_tune: unknown kernel '%s'; registered kernels:\n",
                 opts.kernel.c_str());
    print_registry(stderr);
    return 2;
  }

  try {
    const ocls::device dev = ocls::find_device("", opts.device);
    const reg::input_size size = opts.size.empty()
                                     ? entry->default_size
                                     : reg::input_size::parse(opts.size);

    reg::tune_settings settings;
    settings.technique = opts.technique;
    settings.evaluations = opts.evaluations.value_or(1'000);
    settings.seed = opts.seed;
    if (!opts.journal_dir.empty()) {
      settings.journal = opts.journal_dir + "/" + entry->name + "-" +
                         opts.device + "-" + size.to_string() + ".jsonl";
    }

    const reg::tune_outcome outcome = reg::tune(*entry, size, dev, settings);
    if (outcome.best.empty()) {
      std::fprintf(stderr,
                   "atf_tune: no valid configuration found (%llu "
                   "evaluations, all failed)\n",
                   static_cast<unsigned long long>(outcome.evaluations));
      return 2;
    }

    const bool verified = entry->reference_check(size, dev, outcome.best);
    std::fprintf(stderr,
                 "atf_tune: kernel %s size %s on %s: space %llu, %llu "
                 "evaluations (%llu failed), best %.1f ns, reference %s\n",
                 entry->name.c_str(), size.to_string().c_str(),
                 dev.name().c_str(),
                 static_cast<unsigned long long>(outcome.space_size),
                 static_cast<unsigned long long>(outcome.evaluations),
                 static_cast<unsigned long long>(outcome.failed_evaluations),
                 outcome.best_ns, verified ? "ok" : "MISMATCH");
    if (!verified) {
      return 1;
    }
    for (const auto& [name, value] : outcome.best.entries()) {
      std::printf("%s=%s\n", name.c_str(), atf::to_string(value).c_str());
    }
    return 0;
  } catch (const atf::empty_search_space_error&) {
    std::fprintf(stderr, "atf_tune: the constrained search space is empty\n");
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return 1;
  }
}

/// GEMM grid mode: grid-tune XgemmDirect over the size grid and persist the
/// winners; accumulates into an existing database.
int run_size_grid_mode(const cli_options& opts) {
  // The CLI default 'exhaustive' means "no choice made": grid mode's
  // default is the ensemble search.
  const std::string technique =
      opts.technique == "exhaustive" ? "opentuner" : opts.technique;
  if (!known_technique(technique)) {
    return 1;
  }

  try {
    const auto grid = blasmini::size_grid::parse(opts.size_grid);
    auto db = blasmini::tuning_db::load(opts.db_path);

    blasmini::dispatch_options dopts;
    dopts.journal_dir = opts.journal_dir;
    dopts.tuning.technique = technique;
    dopts.tuning.evaluations = opts.evaluations.value_or(2'000);
    dopts.tuning.seed = opts.seed;
    blasmini::dispatcher dispatch(ocls::find_device("", opts.device), &db,
                                  dopts);

    dispatch.tune_grid(grid);
    db.save(opts.db_path);

    const auto& dev = dispatch.executor().device();
    for (const auto& shape : grid.sizes) {
      const auto decision = dispatch.dispatch(shape.m, shape.n, shape.k);
      std::printf("%s=%s\n",
                  blasmini::gemm_executor::problem_signature(shape.m, shape.n,
                                                             shape.k)
                      .c_str(),
                  decision.params.to_string().c_str());
    }
    std::fprintf(stderr,
                 "atf_tune: tuned %zu grid points on %s, database '%s' now "
                 "holds %zu entries\n",
                 grid.sizes.size(), dev.name().c_str(), opts.db_path.c_str(),
                 db.size());
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return 1;
  } catch (const ocls::device_not_found& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return 1;
  }
  return 0;
}

/// Builds one tuning parameter from its spec; earlier parameters are
/// available for constraint references.
std::optional<atf::tp<std::int64_t>> parse_param(
    const std::string& spec,
    const std::map<std::string, atf::tp<std::int64_t>>& earlier) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) {
    std::fprintf(stderr, "atf_tune: malformed --param '%s'\n", spec.c_str());
    return std::nullopt;
  }
  const std::string name = spec.substr(0, eq);
  const auto fields = atf::common::split(spec.substr(eq + 1), ':');
  if (fields.empty()) {
    std::fprintf(stderr, "atf_tune: empty spec for '%s'\n", name.c_str());
    return std::nullopt;
  }

  if (fields[0] == "set") {
    if (fields.size() != 2) {
      std::fprintf(stderr, "atf_tune: set spec needs values: '%s'\n",
                   spec.c_str());
      return std::nullopt;
    }
    std::vector<std::int64_t> values;
    for (const auto& item : atf::common::split(fields[1], ',')) {
      const auto parsed = parse_i64(item);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "atf_tune: bad set value '%s' in '%s'\n",
                     item.c_str(), spec.c_str());
        return std::nullopt;
      }
      values.push_back(*parsed);
    }
    return atf::tp<std::int64_t>(name, atf::set(values));
  }

  if (fields[0] != "interval" || fields.size() < 3) {
    std::fprintf(stderr, "atf_tune: bad range spec '%s'\n", spec.c_str());
    return std::nullopt;
  }
  const auto lo = parse_i64(fields[1]);
  const auto hi = parse_i64(fields[2]);
  if (!lo.has_value() || !hi.has_value()) {
    std::fprintf(stderr, "atf_tune: bad interval bound in '%s'\n",
                 spec.c_str());
    return std::nullopt;
  }
  auto range = atf::interval<std::int64_t>(*lo, *hi);

  if (fields.size() == 3) {
    return atf::tp<std::int64_t>(name, std::move(range));
  }

  // One optional constraint clause.
  const std::string& clause = fields[3];
  auto ref_of = [&](const std::string& text)
      -> std::optional<atf::tp<std::int64_t>> {
    const auto it = earlier.find(text);
    if (it == earlier.end()) {
      std::fprintf(stderr,
                   "atf_tune: constraint of '%s' references unknown earlier "
                   "parameter '%s'\n",
                   name.c_str(), text.c_str());
      return std::nullopt;
    }
    return it->second;
  };
  if (clause == "pow2") {
    return atf::tp<std::int64_t>(name, std::move(range),
                                 atf::power_of_two());
  }
  if (clause.rfind("divides=", 0) == 0) {
    auto ref = ref_of(clause.substr(8));
    if (!ref) {
      return std::nullopt;
    }
    return atf::tp<std::int64_t>(name, std::move(range),
                                 atf::divides(*ref));
  }
  if (clause.rfind("multiple-of=", 0) == 0) {
    auto ref = ref_of(clause.substr(12));
    if (!ref) {
      return std::nullopt;
    }
    return atf::tp<std::int64_t>(name, std::move(range),
                                 atf::is_multiple_of(*ref));
  }
  std::fprintf(stderr, "atf_tune: unknown constraint clause '%s'\n",
               clause.c_str());
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse_cli(argc, argv);
  if (!opts.has_value()) {
    usage(argv[0]);
    return 1;
  }

  if (opts->list_kernels) {
    return run_list_kernels_mode();
  }

  if (!opts->serve_socket.empty()) {
    return run_serve_client_mode(*opts);
  }

  if (!opts->size_grid.empty()) {
    return run_size_grid_mode(*opts);
  }

  if (!opts->kernel.empty()) {
    return run_registry_mode(*opts);
  }

  // Build the tuning parameters in command-line order.
  std::map<std::string, atf::tp<std::int64_t>> by_name;
  atf::tp_group group;
  for (const auto& spec : opts->params) {
    auto param = parse_param(spec, by_name);
    if (!param.has_value()) {
      return 1;
    }
    group.add(*param);
    by_name.emplace(param->name(), *param);
  }

  atf::tuner tuner;
  tuner.tuning_parameters(std::move(group));

  atf::space_storage_policy storage;
  if (opts->space_storage == "packed") {
    storage.backend = atf::space_storage_backend::packed;
  } else if (opts->space_storage == "lazy") {
    storage.backend = atf::space_storage_backend::lazy;
  } else if (opts->space_storage != "dense") {
    std::fprintf(stderr, "atf_tune: unknown space storage '%s'\n",
                 opts->space_storage.c_str());
    return 1;
  }
  if (opts->chunk_cache_mb.has_value()) {
    storage.chunk_cache_bytes = *opts->chunk_cache_mb << 20;
  }
  tuner.space_storage(storage);

  if (!known_technique(opts->technique)) {
    return 1;
  }
  tuner.search_technique(
      atf::kernels::registry::make_technique(opts->technique, opts->seed));

  atf::abort_condition abort;
  if (opts->evaluations.has_value()) {
    abort = atf::cond::evaluations(*opts->evaluations);
  }
  if (opts->seconds.has_value()) {
    auto by_time = atf::cond::duration(std::chrono::duration<double>(
        *opts->seconds));
    abort = abort.valid() ? (abort || by_time) : by_time;
  }
  if (abort.valid()) {
    tuner.abort_condition(std::move(abort));
  }
  if (!opts->csv.empty()) {
    tuner.log_file(opts->csv);
  }

  auto cf = atf::cf::program(opts->source, opts->compile, opts->run);
  if (!opts->log_file.empty()) {
    cf.log_file(opts->log_file);
  }

  try {
    const auto result = tuner.tune(cf);
    if (!result.has_best()) {
      std::fprintf(stderr, "atf_tune: no valid configuration found (%llu "
                           "evaluations, all failed)\n",
                   static_cast<unsigned long long>(result.evaluations));
      return 2;
    }
    std::fprintf(stderr,
                 "atf_tune: %llu evaluations (%llu failed), best cost %s\n",
                 static_cast<unsigned long long>(result.evaluations),
                 static_cast<unsigned long long>(result.failed_evaluations),
                 atf::cost_traits<atf::cf::program_cost>::describe(
                     *result.best_cost)
                     .c_str());
    for (const auto& [name, value] : result.best_configuration().entries()) {
      std::printf("%s=%s\n", name.c_str(), atf::to_string(value).c_str());
    }
  } catch (const atf::empty_search_space_error&) {
    std::fprintf(stderr, "atf_tune: the constrained search space is empty\n");
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atf_tune: %s\n", error.what());
    return 1;
  }
  return 0;
}
