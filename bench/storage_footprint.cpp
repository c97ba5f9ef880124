// Generation time and memory of one storage backend on one XgemmDirect
// space — the numbers behind EXPERIMENTS.md's storage-backend table.
//
//   storage_footprint [dense|packed|lazy] [MxNxK]  (default dense 128x128x256)
//
// Generates the K20m-limited space once with intra-group parallel
// generation on all hardware threads and prints the generation time, the
// node count, the storage's memory_bytes(), the mean time of a
// config_at(random index) read and this process's peak RSS. Run one process
// per backend: peak RSS is per process.
#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "atf/common/rng.hpp"
#include "atf/common/stopwatch.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search_space.hpp"

namespace xg = atf::kernels::xgemm;

int main(int argc, char** argv) {
  const std::string backend = argc > 1 ? argv[1] : "dense";
  xg::problem prob{128, 128, 256};
  if (argc > 2 && std::sscanf(argv[2], "%zux%zux%zu", &prob.m, &prob.n,
                              &prob.k) != 3) {
    std::fprintf(stderr, "storage_footprint: bad size '%s'\n", argv[2]);
    return 1;
  }
  atf::space_storage_policy storage;
  if (backend == "packed") {
    storage.backend = atf::space_storage_backend::packed;
  } else if (backend == "lazy") {
    storage.backend = atf::space_storage_backend::lazy;
  } else if (backend != "dense") {
    std::fprintf(stderr, "storage_footprint: unknown backend '%s'\n",
                 backend.c_str());
    return 1;
  }

  const auto setup = xg::make_tuning_parameters(prob, xg::size_mode::general);
  const auto space = atf::search_space::generate(
      {setup.group()}, atf::generation_mode::intra_group, 0, {}, storage);
  const std::size_t bytes = space.memory_bytes();

  // Lazy random reads regenerate a chunk almost every time (this space is
  // several times the default chunk cache), so they get far fewer reads.
  const int reads =
      storage.backend == atf::space_storage_backend::lazy ? 200 : 100000;
  atf::common::xoshiro256 rng(1);
  std::uint64_t checksum = 0;
  atf::common::stopwatch timer;
  for (int i = 0; i < reads; ++i) {
    checksum += space.config_at(space.random_index(rng)).size();
  }
  const double read_ns = timer.elapsed_seconds() * 1e9 / reads;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("%s %zux%zux%zu: %llu configurations, %llu nodes, generated "
              "in %.1f ms, memory_bytes %.1f kB, config_at %.0f ns, peak "
              "RSS %.1f MB (checksum %llu)\n",
              backend.c_str(), prob.m, prob.n, prob.k,
              static_cast<unsigned long long>(space.size()),
              static_cast<unsigned long long>(space.node_count()),
              space.generation_seconds() * 1e3,
              static_cast<double>(bytes) / 1e3, read_ns,
              static_cast<double>(usage.ru_maxrss) / 1e3,
              static_cast<unsigned long long>(checksum));
  return 0;
}
