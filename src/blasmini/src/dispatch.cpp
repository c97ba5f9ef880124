#include "blasmini/dispatch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "atf/common/hash.hpp"
#include "atf/common/string_utils.hpp"
#include "atf/session/journal.hpp"

namespace blasmini {

namespace xg = atf::kernels::xgemm;

namespace {

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
    try {
      std::size_t consumed = 0;
      *dims[i] = static_cast<std::size_t>(std::stoull(fields[i], &consumed));
      if (consumed != fields[i].size() || *dims[i] == 0) {
        return std::nullopt;
      }
    } catch (const std::exception&) {
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

/// File-name-safe rendering of a device name ("Tesla K20m" -> "Tesla_K20m").
std::string sanitize(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    out += keep ? c : '_';
  }
  return out;
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
/// a parameter is missing (foreign or truncated record).
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
  return xg::params_from(config);
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

dispatcher::dispatcher(ocls::device dev, tuning_db* db, dispatch_options opts)
    : device_(dev), db_(db), opts_(std::move(opts)), executor_(dev, db) {
  reload();
}

std::string dispatcher::journal_path(const std::string& signature) const {
  if (opts_.journal_dir.empty()) {
    return {};
  }
  return opts_.journal_dir + "/" + sanitize(device_.name()) + "-" +
         sanitize(signature) + ".jsonl";
}

std::uint64_t dispatcher::seed_for(const std::string& signature) const {
  // Independent deterministic streams per grid point: the base seed XORed
  // with the signature's content hash (stable across builds and machines).
  return opts_.tuning.seed ^ atf::common::fnv1a(signature);
}

void dispatcher::tune_one(const xg::problem& shape) {
  const std::string signature =
      gemm_executor::problem_signature(shape.m, shape.n, shape.k);
  tune_options topts = opts_.tuning;
  topts.seed = seed_for(signature);
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
  stored_.clear();
  reranker_.reset();
  rerank_samples_ = 0;
  if (db_ == nullptr) {
    return;
  }

  for (auto& [signature, config] :
       db_->entries_for(device_.name(), "XgemmDirect")) {
    const auto shape = parse_signature(signature);
    if (!shape.has_value()) {
      continue;  // foreign problem key — not a GEMM shape
    }
    stored_.push_back({*shape, signature, params_from_record(config)});
  }

  if (!opts_.surrogate_rerank || opts_.journal_dir.empty()) {
    return;
  }
  // Train the re-ranker on every per-size journal record, sizes in stored
  // (ascending-signature) order, records in journal order: both orders are
  // reproducible across crash-resume cycles, so the fitted forest — and
  // every dispatch it decides — is too.
  std::vector<atf::search::feature_vector> features;
  std::vector<double> targets;
  for (const stored_size& entry : stored_) {
    const auto report =
        atf::session::read_journal(journal_path(entry.signature));
    for (const auto& rec : report.records) {
      if (!rec.valid || !std::isfinite(rec.scalar)) {
        continue;
      }
      const auto p = params_from_tuning_record(rec);
      if (!p.has_value()) {
        continue;
      }
      features.push_back(rerank_features(entry.shape, *p));
      targets.push_back(std::asinh(rec.scalar));
    }
  }
  if (features.size() >= opts_.min_rerank_samples) {
    reranker_.fit(features, targets, opts_.rerank_seed);
    rerank_samples_ = features.size();
  }
}

void dispatcher::enqueue_refinement(const xg::problem& shape) {
  const auto same = [&](const xg::problem& p) {
    return p.m == shape.m && p.n == shape.n && p.k == shape.k;
  };
  if (std::any_of(pending_.begin(), pending_.end(), same)) {
    return;  // already queued: a repeat miss is not a drop
  }
  if (pending_.size() >= opts_.max_pending) {
    ++dropped_refinements_;  // count what used to vanish silently
    return;
  }
  pending_.push_back(shape);
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
  enqueue_refinement(query);

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
  if (nearest.size() > opts_.neighbors) {
    nearest.resize(opts_.neighbors);
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

xg::params dispatcher::params_for(std::size_t m, std::size_t n,
                                  std::size_t k) {
  return dispatch(m, n, k).params;
}

double dispatcher::run(std::size_t m, std::size_t n, std::size_t k,
                       std::span<const float> a, std::span<const float> b,
                       std::span<float> c) {
  return executor_.run_with(dispatch(m, n, k).params, m, n, k, a, b, c);
}

std::vector<xg::problem> dispatcher::pending_refinements() const {
  return {pending_.begin(), pending_.end()};
}

std::size_t dispatcher::refine(std::size_t max_tunes) {
  std::size_t tuned = 0;
  while (tuned < max_tunes && !pending_.empty()) {
    const xg::problem shape = pending_.front();
    pending_.pop_front();
    tune_one(shape);
    ++tuned;
  }
  if (tuned > 0) {
    reload();
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
