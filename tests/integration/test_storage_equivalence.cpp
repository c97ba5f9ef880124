// The generation determinism contract, end to end: for a fixed seed, every
// generation mode (sequential, per_group, intra_group) must produce
// *bit-identical* proposed-index and cost streams — and therefore identical
// tuning results — under every search technique, on both a real paper space
// (XgemmDirect, 10 parameters, 17 constraints) and a skewed divides-chain
// space. Sequential generation is the reference. The representation must
// not matter either: each technique, driven on the plain loop's CSR levels
// (detail::generate_plain) instead of the shared-suffix DAG, proposes the
// same stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atf/atf.hpp"
#include "atf/cf/generic.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/random_search.hpp"
#include "atf/search/surrogate_search.hpp"

namespace {

namespace xg = atf::kernels::xgemm;

constexpr std::uint64_t kSeed = 0x5eed;

// Sanitizers multiply time and memory; shrink the evaluation budget and
// the technique/mode matrix there (space generation dominates the runtime,
// so dropping combinations matters more than dropping evaluations).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kEvaluations = 40;
constexpr bool kFullMatrix = false;
#else
constexpr std::size_t kEvaluations = 120;
constexpr bool kFullMatrix = true;
#endif

/// Deterministic pure pseudo-cost (FNV-1a over the configuration entries):
/// every parameter changes the cost and the value is platform-independent,
/// so identical proposal streams imply identical cost streams and vice
/// versa a single diverging configuration is caught immediately.
double pseudo_cost(const atf::configuration& config) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const auto& [name, value] : config.entries()) {
    for (const std::string& text : {name, atf::to_string(value)}) {
      for (const char c : text) {
        hash ^= std::uint64_t(static_cast<unsigned char>(c));
        hash *= 1099511628211ull;
      }
    }
  }
  return double(hash >> 11) / double(1ull << 53);
}

enum class technique_kind { random, opentuner, surrogate };

constexpr technique_kind kTechniques[] = {
    technique_kind::random, technique_kind::opentuner,
    technique_kind::surrogate};

const char* name_of(technique_kind kind) {
  switch (kind) {
    case technique_kind::random: return "random";
    case technique_kind::opentuner: return "opentuner";
    case technique_kind::surrogate: return "surrogate";
  }
  return "?";
}

std::unique_ptr<atf::search_technique> make_technique(technique_kind kind) {
  if (kind == technique_kind::opentuner) {
    return std::make_unique<atf::search::opentuner_search>(kSeed);
  }
  if (kind == technique_kind::surrogate) {
    return std::make_unique<atf::search::surrogate_search>(kSeed);
  }
  return std::make_unique<atf::search::random_search>(kSeed);
}

constexpr atf::generation_mode kModes[] = {atf::generation_mode::sequential,
                                           atf::generation_mode::per_group,
                                           atf::generation_mode::intra_group};

const char* name_of(atf::generation_mode mode) {
  switch (mode) {
    case atf::generation_mode::sequential: return "sequential";
    case atf::generation_mode::per_group: return "per_group";
    case atf::generation_mode::intra_group: return "intra_group";
  }
  return "?";
}

/// Everything the tuner proposed and observed, in order.
struct run_streams {
  std::vector<std::uint64_t> indices;
  std::vector<double> costs;
  atf::tuning_result<double> result;
};

enum class space_kind { xgemm, skewed };

/// The skewed divides-chain space: a heavily constrained two-parameter
/// chain (few survivors per root, wildly varying subtree sizes) plus a
/// second unconstrained group so per_group generation has real work.
std::vector<atf::tp_group> make_skewed_groups() {
  constexpr std::size_t n = 512;
  auto chain = atf::tp("CHAIN", atf::interval<std::size_t>(1, n),
                       atf::divides(n));
  auto link = atf::tp("LINK", atf::interval<std::size_t>(1, n),
                      atf::divides(n / chain));
  auto lane = atf::tp("LANE", atf::interval<std::size_t>(1, 16));
  return {atf::G(chain, link), atf::G(lane)};
}

run_streams run(space_kind space, atf::generation_mode mode,
                technique_kind kind) {
  atf::tuner tuner;
  if (space == space_kind::xgemm) {
    const xg::problem prob{16, 16, 16};
    const xg::device_limits limits{64, 8 * 1024};
    auto setup =
        xg::make_tuning_parameters(prob, xg::size_mode::general, limits);
    tuner.tuning_parameters(setup.group());
  } else {
    const auto groups = make_skewed_groups();
    tuner.tuning_parameters(groups[0], groups[1]);
  }
  tuner.generation(mode);
  tuner.search_technique(make_technique(kind));
  tuner.abort_condition(atf::cond::evaluations(kEvaluations));

  run_streams out;
  auto record = [&out](const atf::configuration& config) {
    out.indices.push_back(config.space_index().value_or(~std::uint64_t{0}));
    const double cost = pseudo_cost(config);
    out.costs.push_back(cost);
    return cost;
  };
  out.result = tuner.tune(atf::cf::pure(record));
  return out;
}

void expect_identical_streams(const run_streams& reference,
                              const run_streams& other,
                              const std::string& label) {
  ASSERT_EQ(other.indices.size(), reference.indices.size()) << label;
  for (std::size_t i = 0; i < reference.indices.size(); ++i) {
    ASSERT_EQ(other.indices[i], reference.indices[i])
        << label << " proposed index diverges at evaluation " << i;
    ASSERT_EQ(other.costs[i], reference.costs[i])
        << label << " cost diverges at evaluation " << i;
  }
  ASSERT_TRUE(reference.result.has_best()) << label;
  ASSERT_TRUE(other.result.has_best()) << label;
  EXPECT_EQ(*other.result.best_cost, *reference.result.best_cost) << label;
  EXPECT_EQ(other.result.best_configuration().to_string(),
            reference.result.best_configuration().to_string())
      << label;
}

void run_matrix(space_kind space) {
  for (const auto kind : kTechniques) {
    if (!kFullMatrix && kind == technique_kind::opentuner) {
      continue;
    }
    const auto reference =
        run(space, atf::generation_mode::sequential, kind);
    ASSERT_EQ(reference.indices.size(), kEvaluations);
    for (const auto mode : kModes) {
      if (mode == atf::generation_mode::sequential) {
        continue;  // the reference itself
      }
      if (!kFullMatrix && mode == atf::generation_mode::per_group) {
        continue;
      }
      const std::string label =
          std::string(name_of(kind)) + "/" + name_of(mode);
      expect_identical_streams(reference, run(space, mode, kind), label);
    }
  }
}

/// The indices `kind` proposes on `space` for kEvaluations pseudo-costs,
/// driving the technique directly (no tuner, no evaluation engine).
std::vector<std::uint64_t> propose(const atf::search_space& space,
                                   technique_kind kind) {
  const auto technique = make_technique(kind);
  technique->initialize(space);
  std::vector<std::uint64_t> indices;
  for (std::size_t i = 0; i < kEvaluations; ++i) {
    const atf::configuration config = technique->get_next_config();
    indices.push_back(config.space_index().value_or(~std::uint64_t{0}));
    technique->report_cost(pseudo_cost(config));
  }
  technique->finalize();
  return indices;
}

void expect_plain_loop_proposes_the_dag_stream(
    const std::vector<atf::tp_group>& groups) {
  const auto dag =
      atf::search_space::generate(groups, atf::generation_mode::sequential);
  const auto plain = atf::detail::generate_plain(
      groups, atf::generation_mode::intra_group, 3);
  ASSERT_EQ(plain.size(), dag.size());
  ASSERT_EQ(plain.node_count(), dag.node_count());
  for (const auto kind : kTechniques) {
    const auto expected = propose(dag, kind);
    ASSERT_EQ(expected.size(), kEvaluations) << name_of(kind);
    EXPECT_EQ(propose(plain, kind), expected) << name_of(kind);
  }
}

TEST(StorageEquivalence, AllModesMatchSequentialOnXgemmDirect) {
  run_matrix(space_kind::xgemm);
}

TEST(StorageEquivalence, AllModesMatchSequentialOnSkewedChain) {
  run_matrix(space_kind::skewed);
}

TEST(StorageEquivalence, PlainLoopProposesTheDagStreamOnXgemmDirect) {
  const xg::problem prob{16, 16, 16};
  const xg::device_limits limits{64, 8 * 1024};
  const auto setup =
      xg::make_tuning_parameters(prob, xg::size_mode::general, limits);
  expect_plain_loop_proposes_the_dag_stream({setup.group()});
}

TEST(StorageEquivalence, PlainLoopProposesTheDagStreamOnSkewedChain) {
  expect_plain_loop_proposes_the_dag_stream(make_skewed_groups());
}

}  // namespace
