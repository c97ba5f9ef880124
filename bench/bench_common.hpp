// Shared helpers for the reproduction benches: evaluating an XgemmDirect
// configuration on a simulated device, running the three tuners (ATF,
// CLTune-like, OpenTuner-like), and table formatting.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "atf/atf.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/random_search.hpp"
#include "atf/search/simulated_annealing.hpp"
#include "baselines/cltune_like.hpp"
#include "baselines/opentuner_like.hpp"
#include "ocls/ocls.hpp"

namespace bench {

namespace xg = atf::kernels::xgemm;

/// Modeled kernel time (ns) of one configuration; +inf if the launch fails.
/// Buffers and the context are cached per (problem, device) — the same
/// "upload once" optimization ATF's cost function applies.
inline double measure(const xg::problem& prob, const xg::params& p,
                      const ocls::device& dev, xg::size_mode mode) {
  static const ocls::kernel kernel = xg::make_kernel();

  struct session {
    xg::problem prob{};
    std::string device_name;
    std::shared_ptr<ocls::context> ctx;
    ocls::kernel_args args;
  };
  static session cache;
  if (cache.prob.m != prob.m || cache.prob.n != prob.n ||
      cache.prob.k != prob.k || cache.device_name != dev.name()) {
    cache.prob = prob;
    cache.device_name = dev.name();
    cache.ctx = std::make_shared<ocls::context>(dev);
    cache.args.clear();
    cache.args.emplace_back(static_cast<double>(prob.m));
    cache.args.emplace_back(static_cast<double>(prob.n));
    cache.args.emplace_back(static_cast<double>(prob.k));
    cache.args.emplace_back(
        std::make_shared<ocls::buffer<float>>(prob.m * prob.k));
    cache.args.emplace_back(
        std::make_shared<ocls::buffer<float>>(prob.k * prob.n));
    cache.args.emplace_back(
        std::make_shared<ocls::buffer<float>>(prob.m * prob.n));
  }

  ocls::define_map defines = xg::make_defines(prob, p);
  ocls::command_queue queue(cache.ctx);
  try {
    return queue
        .launch(kernel, xg::launch_range(prob, p, mode), cache.args, defines)
        .profile_ns();
  } catch (const ocls::error&) {
    return std::numeric_limits<double>::infinity();
  }
}

/// Decodes a baseline tuner's result (knob name -> integer value).
template <typename Values>
xg::params params_from_values(const Values& values) {
  xg::params p;
  xg::visit_knobs(p, [&](const char* name, auto& field) {
    field = static_cast<std::remove_reference_t<decltype(field)>>(
        values.at(name));
  });
  return p;
}

struct atf_outcome {
  xg::params best;
  double best_ns;
  std::uint64_t space_size;
  double generation_seconds;
  std::uint64_t evaluations;
};

/// Runs ATF on XgemmDirect: constrained-space generation + simulated
/// annealing restarted from several seeds (keeping the overall best), with
/// a fixed per-seed evaluation budget.
inline atf_outcome tune_with_atf(const xg::problem& prob,
                                 const ocls::device& dev, xg::size_mode mode,
                                 std::uint64_t evaluations = 20'000,
                                 int seeds = 3) {
  auto setup = xg::make_tuning_parameters(
      prob, mode, xg::device_limits::of(dev.profile()));
  atf::tuner tuner;
  tuner.tuning_parameters(setup.group());
  const auto& space = tuner.space();

  auto cost = [&](const atf::configuration& config) {
    const double ns = measure(prob, xg::params_from(config), dev, mode);
    if (!std::isfinite(ns)) {
      throw atf::evaluation_error("launch failed");
    }
    return ns;
  };

  atf_outcome out{};
  out.space_size = space.size();
  out.generation_seconds = space.generation_seconds();
  double best = std::numeric_limits<double>::infinity();
  auto run_one = [&](std::unique_ptr<atf::search_technique> technique) {
    tuner.search_technique(std::move(technique));
    tuner.abort_condition(atf::cond::evaluations(evaluations));
    auto result = tuner.tune(cost);
    out.evaluations += result.evaluations;
    if (result.has_best() && *result.best_cost < best) {
      best = *result.best_cost;
      out.best = xg::params_from(result.best_configuration());
      out.best_ns = best;
    }
  };
  for (int seed = 1; seed <= seeds; ++seed) {
    run_one(std::make_unique<atf::search::simulated_annealing>(
        4.0, static_cast<std::uint64_t>(seed)));
  }
  // An ensemble run and a pure-random run add global-search coverage the
  // annealing walks lack (the divisor-friendly optima sit in tiny basins).
  run_one(std::make_unique<atf::search::opentuner_search>(99));
  run_one(std::make_unique<atf::search::random_search>(99));
  return out;
}

/// CLBlast's restricted CLTune parameter lists for XgemmDirect — "the tile
/// size WGD is limited to {8,16,32}" etc. (paper, Section VI-A).
struct clblast_lists {
  std::vector<std::size_t> wgd{8, 16, 32};
  std::vector<std::size_t> mdimcd{8, 16, 32};
  std::vector<std::size_t> ndimcd{8, 16, 32};
  std::vector<std::size_t> mdimad{8, 16, 32};
  std::vector<std::size_t> ndimbd{8, 16, 32};
  std::vector<std::size_t> kwid{2, 8, 16};
  std::vector<std::size_t> vwmd{1, 2, 4, 8};
  std::vector<std::size_t> vwnd{1, 2, 4, 8};
  std::vector<std::size_t> pad{0, 1};
};

/// Builds the CLTune program CLBlast uses for XgemmDirect (Listing-3 style)
/// on the given problem and device. Throws baselines::cltune::empty_space
/// when the restricted space admits no configuration (the paper's case for
/// IS1-IS4).
inline baselines::cltune::tuner make_clblast_cltune_program(
    const xg::problem& prob, const ocls::device& dev) {
  const clblast_lists lists;
  baselines::cltune::tuner tuner(dev);
  // CLTune can only divide/multiply the base sizes by parameters, so the
  // base global size must be (M, N) with DivGlobalSize(WGD) +
  // MulGlobalSize(MDIMCD/NDIMCD) — which forces WGD to divide M and N.
  (void)tuner.AddKernel(xg::make_kernel(),
                        {prob.m, prob.n}, {1, 1});
  tuner.AddDefine("M", prob.m);
  tuner.AddDefine("N", prob.n);
  tuner.AddDefine("K", prob.k);
  tuner.AddArgumentScalar(static_cast<double>(prob.m));
  tuner.AddArgumentScalar(static_cast<double>(prob.n));
  tuner.AddArgumentScalar(static_cast<double>(prob.k));
  tuner.AddArgumentBuffer(prob.m * prob.k);
  tuner.AddArgumentBuffer(prob.k * prob.n);
  tuner.AddArgumentBuffer(prob.m * prob.n);

  tuner.AddParameter(0, "WGD", lists.wgd);
  tuner.AddParameter(0, "MDIMCD", lists.mdimcd);
  tuner.AddParameter(0, "NDIMCD", lists.ndimcd);
  tuner.AddParameter(0, "MDIMAD", lists.mdimad);
  tuner.AddParameter(0, "NDIMBD", lists.ndimbd);
  tuner.AddParameter(0, "KWID", lists.kwid);
  tuner.AddParameter(0, "VWMD", lists.vwmd);
  tuner.AddParameter(0, "VWND", lists.vwnd);
  tuner.AddParameter(0, "PADA", lists.pad);
  tuner.AddParameter(0, "PADB", lists.pad);

  const std::size_t m = prob.m;
  const std::size_t n = prob.n;
  using vals = std::vector<std::size_t>;
  tuner.AddConstraint(0, [m](vals v) { return m % v[0] == 0; }, {"WGD"});
  tuner.AddConstraint(0, [n](vals v) { return n % v[0] == 0; }, {"WGD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % v[1] == 0; },
                      {"WGD", "KWID"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % v[1] == 0; },
                      {"WGD", "MDIMCD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % v[1] == 0; },
                      {"WGD", "NDIMCD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % v[1] == 0; },
                      {"WGD", "MDIMAD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % v[1] == 0; },
                      {"WGD", "NDIMBD"});
  tuner.AddConstraint(
      0, [](vals v) { return (v[0] * v[1]) % v[2] == 0; },
      {"MDIMCD", "NDIMCD", "MDIMAD"});
  tuner.AddConstraint(
      0, [](vals v) { return (v[0] * v[1]) % v[2] == 0; },
      {"MDIMCD", "NDIMCD", "NDIMBD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % (v[1] * v[2]) == 0; },
                      {"WGD", "MDIMCD", "VWMD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % (v[1] * v[2]) == 0; },
                      {"WGD", "NDIMCD", "VWND"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % (v[1] * v[2]) == 0; },
                      {"WGD", "MDIMAD", "VWMD"});
  tuner.AddConstraint(0, [](vals v) { return v[0] % (v[1] * v[2]) == 0; },
                      {"WGD", "NDIMBD", "VWND"});
  const std::size_t max_wg = dev.profile().max_work_group_size;
  tuner.AddConstraint(
      0, [max_wg](vals v) { return v[0] * v[1] <= max_wg; },
      {"MDIMCD", "NDIMCD"});
  const std::size_t lmem = dev.profile().local_mem_bytes;
  tuner.AddConstraint(
      0,
      [lmem](vals v) {
        const std::size_t wgd = v[0];
        return (wgd * (wgd + v[1]) + wgd * (wgd + v[2])) * sizeof(float) <=
               lmem;
      },
      {"WGD", "PADA", "PADB"});

  tuner.DivGlobalSize(0, {"WGD", "WGD"});
  tuner.MulGlobalSize(0, {"MDIMCD", "NDIMCD"});
  tuner.MulLocalSize(0, {"MDIMCD", "NDIMCD"});
  return tuner;
}

/// The device-optimized configuration CLBlast ships: the best of CLTune's
/// restricted space tuned on the average size 256 x 256 (paper, VI-A).
inline xg::params cltune_device_optimized(const ocls::device& dev) {
  const xg::problem avg{256, 256, 256};
  auto tuner = make_clblast_cltune_program(avg, dev);
  tuner.UseFullSearch();
  tuner.Tune();
  return params_from_values(tuner.GetBestResult());
}

struct opentuner_outcome {
  xg::params used;       ///< best valid config, or the kernel defaults
  bool found_valid;
  std::uint64_t evaluations;
  std::uint64_t valid_evaluations;
  std::uint64_t unconstrained_size;  ///< saturated
};

/// The OpenTuner program of Section VI: unconstrained space, penalty on
/// invalid configurations, 10,000 evaluations; falls back to the kernel's
/// default parameter values when no valid configuration is found.
inline opentuner_outcome tune_with_opentuner(const xg::problem& prob,
                                             const ocls::device& dev,
                                             std::uint64_t evaluations = 10'000,
                                             std::uint64_t seed = 3) {
  baselines::opentuner::tuner tuner;
  const auto tops = xg::unconstrained_range_sizes(prob);
  tuner.add_parameter_range("WGD", tops[0]);
  tuner.add_parameter_range("MDIMCD", tops[1]);
  tuner.add_parameter_range("NDIMCD", tops[2]);
  tuner.add_parameter_range("MDIMAD", tops[3]);
  tuner.add_parameter_range("NDIMBD", tops[4]);
  tuner.add_parameter_range("KWID", tops[5]);
  tuner.add_parameter("VWMD", {1, 2, 4, 8});
  tuner.add_parameter("VWND", {1, 2, 4, 8});
  tuner.add_parameter("PADA", {0, 1});
  tuner.add_parameter("PADB", {0, 1});

  const double penalty = 1e15;  // "we report a penalty value" [3]
  const auto limits = xg::device_limits::of(dev.profile());
  auto cost = [&](const baselines::opentuner::configuration& c) {
    const xg::params p = params_from_values(c);
    if (!xg::valid(prob, p, xg::size_mode::general, limits)) {
      return penalty;
    }
    const double ns = measure(prob, p, dev, xg::size_mode::general);
    return std::isfinite(ns) ? ns : penalty;
  };
  const auto result = tuner.run(evaluations, penalty, cost, seed);

  opentuner_outcome out;
  out.found_valid = result.found_valid;
  out.evaluations = result.evaluations;
  out.valid_evaluations = result.valid_evaluations;
  out.unconstrained_size = tuner.space_size();
  if (result.found_valid) {
    out.used = params_from_values(result.best);
  } else {
    out.used = xg::params::defaults();
  }
  return out;
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

}  // namespace bench
