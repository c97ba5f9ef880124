// Generation time and memory of the space storage on one space — the
// numbers behind EXPERIMENTS.md's storage tables.
//
//   storage_footprint [SPACE]
//
// SPACE is one of
//   MxNxK        XgemmDirect on the K20m limits (default 128x128x256);
//   FAMILY:SIZE  a registry family's groups on the K20m profile, e.g.
//                reduce:65536 or conv2d:64x64x5x5;
//   chain        the skewed divides-chain of bench/chain_tuning_smoke
//                (1.4e8 configurations);
//   adversarial  a group in which every constraint reads the whole prefix,
//                so no two subtrees can be shared.
//
// Generates the space once with intra-group parallel generation on all
// hardware threads and prints the configurations, the logical node count,
// the node entries the storage holds, the candidate values generation
// visited (logical) and the constraint calls it made, the generation time,
// the storage's memory_bytes(), the mean time of a config_at(random index)
// read and this process's peak RSS. Run one process per space: peak RSS
// is per process.
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/common/stopwatch.hpp"
#include "atf/constraint.hpp"
#include "atf/kernels/registry.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search_space.hpp"
#include "ocls/device.hpp"

namespace xg = atf::kernels::xgemm;
namespace reg = atf::kernels::registry;

namespace {

/// chain_tuning_smoke's space: wide unconstrained A and D around the skewed
/// divides-chain B | 1024, C | 1024 / B.
std::vector<atf::tp_group> chain_groups() {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 1024));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 1024),
                   atf::divides(std::size_t{1024}));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 1024),
                   atf::divides(1024 / b));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, 2048));
  return {atf::G(a, b, c, d)};
}

/// Five parameters over 1..32; each constraint mixes the candidate with
/// every earlier value, so every subtree's key is its whole prefix.
std::vector<atf::tp_group> adversarial_groups() {
  std::vector<atf::tp<std::size_t>> params;
  atf::tp_group group;
  for (std::size_t lvl = 0; lvl < 5; ++lvl) {
    const std::vector<atf::tp<std::size_t>> prefix = params;
    params.push_back(atf::tp(
        std::string(1, static_cast<char>('A' + lvl)),
        atf::interval<std::size_t>(1, 32),
        atf::pred([prefix](std::size_t v) {
          std::size_t mix = v;
          for (std::size_t j = 0; j < prefix.size(); ++j) {
            mix += prefix[j].eval() * (2 * j + 3);
          }
          return mix % 3 != 0;
        })));
    group.add(params.back());
  }
  return {group};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string space_name = argc > 1 ? argv[1] : "128x128x256";

  std::vector<atf::tp_group> groups;
  xg::problem prob{};
  const std::size_t colon = space_name.find(':');
  try {
    if (space_name == "chain") {
      groups = chain_groups();
    } else if (space_name == "adversarial") {
      groups = adversarial_groups();
    } else if (colon != std::string::npos) {
      const reg::entry* family = reg::find(space_name.substr(0, colon));
      if (family == nullptr) {
        std::fprintf(stderr, "storage_footprint: unknown family in '%s'\n",
                     space_name.c_str());
        return 1;
      }
      groups = family->make_groups(
          reg::input_size::parse(space_name.substr(colon + 1)),
          ocls::find_device("", "K20m").profile());
    } else if (std::sscanf(space_name.c_str(), "%zux%zux%zu", &prob.m,
                           &prob.n, &prob.k) == 3) {
      groups = {xg::make_tuning_parameters(prob, xg::size_mode::general)
                    .group()};
    } else {
      std::fprintf(stderr, "storage_footprint: bad space '%s'\n",
                   space_name.c_str());
      return 1;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "storage_footprint: %s\n", error.what());
    return 1;
  }

  const auto space =
      atf::search_space::generate(groups, atf::generation_mode::intra_group);
  const std::size_t bytes = space.memory_bytes();
  std::uint64_t stored = 0;
  std::uint64_t visited = 0;
  std::uint64_t checked = 0;
  for (std::size_t g = 0; g < space.num_groups(); ++g) {
    stored += space.group(g).stats().stored_nodes;
    visited += space.group(g).stats().visited_values;
    checked += space.group(g).stats().checked_values;
  }

  const int reads = 100000;
  atf::common::xoshiro256 rng(1);
  std::uint64_t checksum = 0;
  atf::common::stopwatch timer;
  for (int i = 0; i < reads && space.size() != 0; ++i) {
    checksum += space.config_at(space.random_index(rng)).size();
  }
  const double read_ns = timer.elapsed_seconds() * 1e9 / reads;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("%s: %llu configurations, %llu nodes, %llu stored, %llu "
              "visited, %llu checked, generated in %.1f ms, memory_bytes "
              "%.1f kB, config_at %.0f ns, peak RSS %.1f MB (checksum "
              "%llu)\n",
              space_name.c_str(),
              static_cast<unsigned long long>(space.size()),
              static_cast<unsigned long long>(space.node_count()),
              static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(visited),
              static_cast<unsigned long long>(checked),
              space.generation_seconds() * 1e3,
              static_cast<double>(bytes) / 1e3, read_ns,
              static_cast<double>(usage.ru_maxrss) / 1e3,
              static_cast<unsigned long long>(checksum));
  return 0;
}
