// Memory-capped smoke run of a space too large to hold as a plain tree.
//
// Builds a divides-chain space with >10^8 valid configurations — about
// 530 MiB of nodes if materialized as plain CSR — and runs a fixed-seed
// random-search tuning pass on it. The shared-suffix DAG stores each
// subtree of the chain once, so the space takes well under a megabyte.
// Asserts that
//
//   * the run completes and measures every budgeted evaluation,
//   * peak RSS stays under a cap (128 MiB) that the CSR
//     representation provably exceeds (projected CSR bytes are computed
//     from the logical node count and checked against the cap),
//
// so CI can execute it under an address-space ulimit a CSR tree
// could never satisfy. `--small` shrinks the space for sanitizer runs
// (TSan/ASan multiply memory and time); the RSS assertion is skipped there
// because sanitizer shadow memory dominates the measurement.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "atf/atf.hpp"
#include "atf/search/random_search.hpp"

namespace {

/// Peak resident set size of this process, in bytes (Linux: ru_maxrss is
/// reported in kilobytes).
std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

/// Pure deterministic pseudo-cost: FNV-1a over the configuration entries.
/// Fast, stable across platforms, and fixed-seed reproducible — the bench
/// measures memory behaviour, not a real kernel.
double pseudo_cost(const atf::configuration& config) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const auto& [name, value] : config.entries()) {
    for (const char c : name) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    for (const char c : atf::to_string(value)) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return static_cast<double>(hash % 1000000) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }

  // A and D are wide unconstrained ranges (A gives the root range its
  // chunkability, D fans every valid prefix out into many leaves); B and C
  // form the skewed divides-chain that makes generation constraint-bound.
  const std::size_t wide = small ? 64 : 1024;
  const std::size_t chain = small ? 256 : 1024;
  const std::size_t fanout = small ? 64 : 2048;
  auto a = atf::tp("A", atf::interval<std::size_t>(1, wide));
  auto b =
      atf::tp("B", atf::interval<std::size_t>(1, chain), atf::divides(chain));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, chain),
                   atf::divides(chain / b));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, fanout));

  atf::tuner tuner;
  tuner.tuning_parameters(a, b, c, d);
  tuner.search_technique(
      std::make_unique<atf::search::random_search>(0x5eed));
  tuner.abort_condition(atf::cond::evaluations(small ? 50 : 200));

  const auto& space = tuner.space();
  const std::uint64_t configs = space.size();
  const std::uint64_t nodes = space.node_count();
  // What plain CSR storage would hold: 24 bytes per inner node (u32
  // value_index + u64 child_begin + u32 child_count + u64 leaf_count) and
  // 4 bytes per leaf, which stores only its u32 value_index.
  const std::size_t projected_csr_bytes =
      (nodes - configs) * 24 + configs * 4;
  const auto mb = [](std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };

  std::printf("space: %llu configurations, %llu nodes\n",
              static_cast<unsigned long long>(configs),
              static_cast<unsigned long long>(nodes));
  std::printf("storage holds %.2f MB; CSR would hold %.2f MB\n",
              mb(space.memory_bytes()), mb(projected_csr_bytes));

  const auto result = tuner.tune(pseudo_cost);
  std::printf("tuned: %llu evaluations, best cost %.3f\n",
              static_cast<unsigned long long>(result.evaluations),
              *result.best_cost);
  std::printf("storage after tuning: %.2f MB; peak RSS %.2f MB\n",
              mb(space.memory_bytes()), mb(peak_rss_bytes()));

  bool ok = true;
  if (!small && configs < 100000000ull) {
    std::printf("ERROR: space smaller than 10^8 configurations\n");
    ok = false;
  }
  if (result.evaluations != (small ? 50u : 200u) || !result.has_best()) {
    std::printf("ERROR: tuning did not complete its evaluation budget\n");
    ok = false;
  }
  if (!small) {
    const std::size_t rss_cap = std::size_t{128} << 20;
    if (projected_csr_bytes <= rss_cap) {
      std::printf("ERROR: CSR projection %.2f MB does not exceed the "
                  "%.0f MB cap — the cap proves nothing\n",
                  mb(projected_csr_bytes), mb(rss_cap));
      ok = false;
    }
    if (peak_rss_bytes() > rss_cap) {
      std::printf("ERROR: peak RSS %.2f MB exceeded the %.0f MB cap\n",
                  mb(peak_rss_bytes()), mb(rss_cap));
      ok = false;
    }
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
