// Adaptive work-stealing chunk scheduler on a skewed workload.
//
// A divides-chain whose subtree cost falls off sharply with the root value:
// B ranges over divisors of n/A, so A = 1 owns a subtree that scans the full
// n-element range at every level while large A values are nearly free. A
// fixed over-partition of the root range puts almost all of the work into
// the first chunk; the adaptive scheduler detects that chunk as hot (its
// visited-value count exceeds hot_factor x the running median of completed
// chunks) and re-splits the remaining tail back onto the queue.
//
// Prints, for 1/2/4/8 workers: wall time of the fixed partition vs the
// adaptive scheduler, chunk counts, re-splits, and the chunk-cost imbalance
// (max / mean visited values per chunk). Verifies every parallel space is
// bit-identical to the sequential one; exits non-zero on any mismatch.
//
// `--small` shrinks the problem for sanitizer runs (TSan in CI).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "atf/atf.hpp"
#include "atf/common/statistics.hpp"
#include "atf/common/stopwatch.hpp"

namespace {

std::vector<atf::tp_group> make_skewed_group(std::size_t n) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, n), atf::divides(n));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, n), atf::divides(n / a));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, n), atf::divides(b));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, n), atf::divides(c));
  return {atf::G(a, b, c, d)};
}

bool spaces_identical(const atf::search_space& expected,
                      const atf::search_space& actual) {
  if (actual.size() != expected.size() ||
      actual.node_count() != expected.node_count()) {
    return false;
  }
  if (expected.empty()) {
    return true;
  }
  // Deterministic sample plus both ends; full enumeration would dominate.
  atf::common::xoshiro256 rng(0x51e3);
  std::vector<std::uint64_t> indices{0, expected.size() - 1};
  for (int i = 0; i < 128; ++i) {
    indices.push_back(rng.below(expected.size()));
  }
  for (const auto index : indices) {
    if (actual.config_at(index) != expected.config_at(index)) {
      return false;
    }
  }
  return true;
}

struct run_result {
  double seconds = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t resplits = 0;
  double imbalance = 0.0;  ///< max / mean visited values per chunk
  double p95_visited = 0.0;
  bool identical = false;
};

run_result run(const std::vector<atf::tp_group>& groups,
               const atf::search_space& reference, std::size_t workers,
               const atf::generation_policy& policy) {
  atf::common::stopwatch timer;
  const auto space = atf::search_space::generate(
      groups, atf::generation_mode::intra_group, workers, policy);
  run_result r;
  r.seconds = timer.elapsed_seconds();
  const auto& stats = space.group(0).stats();
  r.chunks = stats.chunks;
  r.resplits = stats.resplits;
  std::vector<double> visited;
  visited.reserve(stats.per_chunk.size());
  double max_visited = 0.0;
  for (const auto& chunk : stats.per_chunk) {
    const auto v = static_cast<double>(chunk.visited_values);
    visited.push_back(v);
    if (v > max_visited) {
      max_visited = v;
    }
  }
  if (!visited.empty()) {
    double total = 0.0;
    for (const double v : visited) total += v;
    r.imbalance = max_visited / (total / static_cast<double>(visited.size()));
    r.p95_visited = atf::common::percentile(visited, 95.0);
  }
  r.identical = spaces_identical(reference, space);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }
  const std::size_t n = small ? 512 : 8192;

  std::printf("=== Skewed divides-chain: fixed partition vs adaptive "
              "scheduler ===\n\n");
  std::printf("n = %zu, hardware concurrency: %u core(s) — wall-clock "
              "speedups are bounded by this; the imbalance and re-split "
              "columns are schedule facts either way\n\n",
              n, std::thread::hardware_concurrency());

  const auto groups = make_skewed_group(n);
  atf::common::stopwatch seq_timer;
  const auto reference =
      atf::search_space::generate(groups, atf::generation_mode::sequential);
  const double t_seq = seq_timer.elapsed_seconds();
  std::printf("sequential: %.3f s, %llu configurations, %llu nodes in "
              "%.2f MB\n\n",
              t_seq, static_cast<unsigned long long>(reference.size()),
              static_cast<unsigned long long>(reference.node_count()),
              static_cast<double>(reference.memory_bytes()) /
                  (1024.0 * 1024.0));

  // The fixed baseline keeps the pull-scheduled queue but never re-splits —
  // the pre-adaptive behaviour of a static over-partition.
  atf::generation_policy fixed;
  fixed.adaptive = false;

  // Aggressive enough to fire on the bench sizes even when the pool is not
  // starving (a single-core container timeshares, so starvation is rare).
  atf::generation_policy adaptive;
  adaptive.min_split_visited = 64;
  adaptive.split_only_when_starving = false;

  std::printf("%-7s | %-8s | %9s | %6s | %8s | %9s | %9s | %7s\n", "workers",
              "policy", "time [s]", "chunks", "resplits", "imbalance",
              "p95 visit", "speedup");
  for (int i = 0; i < 84; ++i) std::putchar('-');
  std::putchar('\n');

  bool all_identical = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const auto f = run(groups, reference, workers, fixed);
    const auto a = run(groups, reference, workers, adaptive);
    all_identical = all_identical && f.identical && a.identical;
    std::printf("%-7zu | %-8s | %9.3f | %6llu | %8llu | %8.2fx | %9.0f | %6s\n",
                workers, "fixed", f.seconds,
                static_cast<unsigned long long>(f.chunks),
                static_cast<unsigned long long>(f.resplits), f.imbalance,
                f.p95_visited, "1.00x");
    std::printf("%-7zu | %-8s | %9.3f | %6llu | %8llu | %8.2fx | %9.0f | %5.2fx\n",
                workers, "adaptive", a.seconds,
                static_cast<unsigned long long>(a.chunks),
                static_cast<unsigned long long>(a.resplits), a.imbalance,
                a.p95_visited, f.seconds / a.seconds);
  }

  std::printf("\nbit-identical: %s\n", all_identical ? "yes" : "NO");
  if (!all_identical) {
    std::printf("ERROR: a parallel space diverged from the sequential one\n");
    return 1;
  }

  return 0;
}
