#include "blasmini/dispatch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "atf/common/hash.hpp"
#include "atf/common/string_utils.hpp"
#include "atf/value.hpp"

namespace blasmini {

namespace xg = atf::kernels::xgemm;

namespace {

/// The service-key kernel name of every GEMM journal (the registry family).
constexpr const char* kernel_name = "xgemm";
/// Stored sizes considered per query (k of the k-nearest-neighbour step).
constexpr std::size_t rerank_neighbors = 3;
/// Seed of the re-ranker forest (independent of the tuning seed).
constexpr std::uint64_t rerank_seed = 0x5eed;

std::size_t parse_extent(const std::string& text) {
  // stoull accepts "-4" (wrapping to a huge value), leading whitespace and
  // "+"; an extent is digits only.
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("size_grid: bad extent '" + text + "'");
  }
  std::size_t consumed = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("size_grid: bad extent '" + text + "'");
  }
  if (consumed != text.size() || value == 0) {
    throw std::invalid_argument("size_grid: bad extent '" + text + "'");
  }
  return static_cast<std::size_t>(value);
}

std::vector<std::size_t> parse_extent_list(const std::string& text) {
  std::vector<std::size_t> out;
  for (const auto& item : atf::common::split(text, ',')) {
    out.push_back(parse_extent(item));
  }
  if (out.empty()) {
    throw std::invalid_argument("size_grid: empty extent list");
  }
  return out;
}

/// "MxNxK" back to a problem; nullopt for foreign signatures.
std::optional<xg::problem> parse_signature(const std::string& signature) {
  const auto fields = atf::common::split(signature, 'x');
  if (fields.size() != 3) {
    return std::nullopt;
  }
  xg::problem prob;
  std::size_t* const dims[3] = {&prob.m, &prob.n, &prob.k};
  for (std::size_t i = 0; i < 3; ++i) {
    // Digits only, as parse_extent: stoull would wrap "-3" to 2^64-3.
    if (fields[i].empty() ||
        fields[i].find_first_not_of("0123456789") != std::string::npos) {
      return std::nullopt;
    }
    try {
      *dims[i] = static_cast<std::size_t>(std::stoull(fields[i]));
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
    if (*dims[i] == 0) {
      return std::nullopt;
    }
  }
  return prob;
}

double log_distance(const xg::problem& a, const xg::problem& b) {
  const auto axis = [](std::size_t x, std::size_t y) {
    const double d = std::log(static_cast<double>(std::max<std::size_t>(x, 1))) -
                     std::log(static_cast<double>(std::max<std::size_t>(y, 1)));
    return d * d;
  };
  return std::sqrt(axis(a.m, b.m) + axis(a.n, b.n) + axis(a.k, b.k));
}

/// Feature vector of the re-ranker: the query shape and the configuration,
/// both log-compressed (sizes and power-of-two-ish parameters span orders
/// of magnitude; the forest splits better on their exponents).
atf::search::feature_vector rerank_features(const xg::problem& prob,
                                            const xg::params& p) {
  const auto lg = [](double v) { return std::log2(std::max(v, 1.0)); };
  return {lg(static_cast<double>(prob.m)), lg(static_cast<double>(prob.n)),
          lg(static_cast<double>(prob.k)), lg(static_cast<double>(p.wgd)),
          lg(static_cast<double>(p.mdimcd)),
          lg(static_cast<double>(p.ndimcd)),
          lg(static_cast<double>(p.mdimad)),
          lg(static_cast<double>(p.ndimbd)),
          lg(static_cast<double>(p.kwid)), lg(static_cast<double>(p.vwmd)),
          lg(static_cast<double>(p.vwnd)), p.pada ? 1.0 : 0.0,
          p.padb ? 1.0 : 0.0};
}

/// Rebuilds params from a journal record's (name, value) pairs; nullopt when
/// a parameter is missing or has another type (foreign or truncated
/// record).
std::optional<xg::params> params_from_tuning_record(
    const atf::session::tuning_record& rec) {
  const auto config = rec.to_configuration();
  bool complete = true;
  xg::visit_knobs(xg::params::defaults(), [&](const char* name, const auto&) {
    complete = complete && config.contains(name);
  });
  if (!complete) {
    return std::nullopt;
  }
  try {
    return atf::kernels::params_from<xg::params>(config);
  } catch (const atf::value_type_error&) {
    return std::nullopt;
  }
}

}  // namespace

size_grid size_grid::cross(const std::vector<std::size_t>& ms,
                           const std::vector<std::size_t>& ns,
                           const std::vector<std::size_t>& ks) {
  size_grid grid;
  for (const std::size_t m : ms) {
    for (const std::size_t n : ns) {
      for (const std::size_t k : ks) {
        if (m == 0 || n == 0 || k == 0) {
          throw std::invalid_argument("size_grid: extents must be positive");
        }
        grid.sizes.push_back({m, n, k});
      }
    }
  }
  return grid;
}

size_grid size_grid::parse(const std::string& spec) {
  size_grid grid;
  for (const auto& item : atf::common::split(spec, ';')) {
    if (item.empty()) {
      continue;
    }
    const auto axes = atf::common::split(item, 'x');
    if (axes.size() != 3) {
      throw std::invalid_argument(
          "size_grid: expected MxNxK (each a comma list), got '" + item +
          "'");
    }
    const size_grid part = cross(parse_extent_list(axes[0]),
                                 parse_extent_list(axes[1]),
                                 parse_extent_list(axes[2]));
    grid.sizes.insert(grid.sizes.end(), part.sizes.begin(),
                      part.sizes.end());
  }
  if (grid.sizes.empty()) {
    throw std::invalid_argument("size_grid: empty spec");
  }
  return grid;
}

dispatcher::dispatcher(ocls::device dev, dispatch_options opts)
    : device_(dev),
      opts_(std::move(opts)),
      executor_(dev),
      service_({.journal_dir = opts_.journal_dir,
                .max_pending = opts_.max_pending},
               [this](const atf::service::service_key& key,
                      const std::string&) {
                 const auto shape = parse_signature(key.size);
                 if (!shape.has_value()) {
                   return false;
                 }
                 tune_one(*shape);
                 return true;
               }) {
  reload();
}

atf::service::service_key dispatcher::key_of(
    const std::string& signature) const {
  return {kernel_name, device_.name(), signature};
}

std::string dispatcher::journal_path(const std::string& signature) const {
  return service_.journal_path(key_of(signature));
}

void dispatcher::tune_one(const xg::problem& shape) {
  const std::string signature =
      gemm_executor::problem_signature(shape.m, shape.n, shape.k);
  tune_options topts = opts_.tuning;
  // Independent deterministic streams per grid point: the base seed XORed
  // with the signature's content hash (stable across builds and machines).
  topts.seed = opts_.tuning.seed ^ atf::common::fnv1a(signature);
  topts.journal = journal_path(signature);
  executor_.tune(shape.m, shape.n, shape.k, topts);
}

std::size_t dispatcher::tune_grid(const size_grid& grid) {
  for (const xg::problem& shape : grid.sizes) {
    tune_one(shape);
  }
  reload();
  return grid.sizes.size();
}

void dispatcher::reload() {
  service_.load();
  rebuild();
}

void dispatcher::rebuild() {
  stored_.clear();
  reranker_.reset();
  rerank_samples_ = 0;

  // The snapshot map is ordered by "kernel/device/size", so this device's
  // GEMM keys arrive in ascending signature order.
  const auto snapshot = service_.current_snapshot();
  std::vector<const atf::session::result_store*> stores;
  for (const auto& [name, state] : snapshot->keys) {
    if (state->key.kernel != kernel_name ||
        state->key.device != device_.name() || !state->best.has_value()) {
      continue;  // another family or device, or nothing valid measured yet
    }
    const auto shape = parse_signature(state->key.size);
    const auto p = params_from_tuning_record(*state->best);
    if (!shape.has_value() || !p.has_value()) {
      continue;  // foreign problem key or record — not a GEMM shape
    }
    stored_.push_back({*shape, state->key.size, *p});
    stores.push_back(&state->store);
  }

  if (!opts_.surrogate_rerank) {
    return;
  }
  // Train the re-ranker on every record the searches measured, sizes in
  // stored (ascending-signature) order, records in journal order: both
  // orders are reproducible across crash-resume cycles, so the fitted
  // forest — and every dispatch it decides — is too. The guard's defaults
  // records are not search measurements and stay out of the training set.
  std::vector<atf::search::feature_vector> features;
  std::vector<double> targets;
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    for (const auto& rec : stores[i]->records()) {
      if (!rec.valid || !std::isfinite(rec.scalar) ||
          rec.technique == defaults_technique) {
        continue;
      }
      const auto p = params_from_tuning_record(rec);
      if (!p.has_value()) {
        continue;
      }
      features.push_back(rerank_features(stored_[i].shape, *p));
      targets.push_back(std::asinh(rec.scalar));
    }
  }
  if (features.size() >= opts_.min_rerank_samples) {
    reranker_.fit(features, targets, rerank_seed);
    rerank_samples_ = features.size();
  }
}

dispatcher::decision dispatcher::dispatch(std::size_t m, std::size_t n,
                                          std::size_t k) {
  const xg::problem query{m, n, k};
  const std::string signature = gemm_executor::problem_signature(m, n, k);
  const auto limits = xg::device_limits::of(device_.profile());

  for (const stored_size& entry : stored_) {
    if (entry.signature == signature) {
      return {entry.params, source::exact, {}, 0.0};
    }
  }
  service_.enqueue(key_of(signature));

  // The k nearest tuned shapes in log-size space, constraint-checked at the
  // query shape. Ties break on the signature so the order never depends on
  // container internals.
  std::vector<const stored_size*> nearest;
  for (const stored_size& entry : stored_) {
    if (xg::valid(query, entry.params, xg::size_mode::general, limits)) {
      nearest.push_back(&entry);
    }
  }
  std::sort(nearest.begin(), nearest.end(),
            [&](const stored_size* a, const stored_size* b) {
              const double da = log_distance(query, a->shape);
              const double db = log_distance(query, b->shape);
              if (da != db) {
                return da < db;
              }
              return a->signature < b->signature;
            });
  if (nearest.empty()) {
    return {xg::params::defaults(), source::defaults, {}, 0.0};
  }
  if (nearest.size() > rerank_neighbors) {
    nearest.resize(rerank_neighbors);
  }

  const stored_size* chosen = nearest.front();
  source from = source::nearest;
  if (reranker_.trained()) {
    // Surrogate re-rank: predict each candidate's cost at the *query*
    // shape and serve the lowest prediction. The candidates are already in
    // deterministic (distance, signature) order, so strict `<` makes the
    // argmin reproducible.
    double best_score = std::numeric_limits<double>::infinity();
    for (const stored_size* candidate : nearest) {
      const double score =
          reranker_.predict(rerank_features(query, candidate->params)).mean;
      if (score < best_score) {
        best_score = score;
        chosen = candidate;
      }
    }
    from = source::reranked;
  }
  return {chosen->params, from, chosen->signature,
          log_distance(query, chosen->shape)};
}

double dispatcher::run(std::size_t m, std::size_t n, std::size_t k,
                       std::span<const float> a, std::span<const float> b,
                       std::span<float> c) {
  return executor_.run_with(dispatch(m, n, k).params, m, n, k, a, b, c);
}

std::size_t dispatcher::pending_refinements() const {
  return service_.stats().pending;
}

std::uint64_t dispatcher::dropped_refinements() const {
  return service_.stats().dropped_refinements;
}

std::size_t dispatcher::refine(std::size_t max_tunes) {
  const std::size_t tuned = service_.refine_pending(max_tunes);
  if (tuned > 0) {
    rebuild();
  }
  return tuned;
}

std::vector<std::string> dispatcher::known_sizes() const {
  std::vector<std::string> out;
  out.reserve(stored_.size());
  for (const stored_size& entry : stored_) {
    out.push_back(entry.signature);
  }
  return out;
}

}  // namespace blasmini
