#include "atf/search/surrogate_arm.hpp"

#include <algorithm>
#include <cmath>

namespace atf::search {

void surrogate_arm::initialize(const numeric_domain& domain,
                               std::uint64_t seed) {
  domain_ = &domain;
  rng_ = common::xoshiro256(seed);
  trainer_.reset(seed);
  measured_.clear();
  pending_.clear();
}

void surrogate_arm::encode(const point& p, double* out) {
  for (const std::uint64_t v : p) {
    const double d = static_cast<double>(v);
    *out++ = d;
    *out++ = std::asinh(d);
  }
}

std::uint64_t surrogate_arm::key_of(const point& p) noexcept {
  // FNV-1a over the coordinates — used to avoid duplicate points within
  // one proposal batch and to deprioritize already-measured points, so a
  // content key is enough.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t v : p) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffull;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

point surrogate_arm::propose_one(
    std::unordered_set<std::uint64_t>& batch_keys) {
  const bool explore =
      !trainer_.ready() || rng_.uniform() < opts_.exploration;
  if (explore) {
    point p = domain_->random_point(rng_);
    batch_keys.insert(key_of(p));
    return p;
  }
  trainer_.fit_pending();
  // Rank a fresh random pool in three preference tiers: the best-scored
  // point never measured before (a flat model score must not pin the arm
  // to one point forever — the exploitation budget has to keep probing new
  // points), then the best not already in this batch, then the overall
  // best. The whole pool is drawn before it is scored in one batch pass;
  // scoring draws nothing, so the stream is that of scoring each draw.
  const std::size_t n = opts_.candidate_pool;
  pool_.clear();
  for (std::size_t draw = 0; draw < n; ++draw) {
    pool_.push_back(domain_->random_point(rng_));
  }
  const std::size_t width = 2 * domain_->dimensions();
  rows_.resize(n * width);
  for (std::size_t draw = 0; draw < n; ++draw) {
    encode(pool_[draw], rows_.data() + draw * width);
  }
  scores_.resize(n);
  trainer_.score_batch(rows_.data(), n, scores_.data());

  point best;
  point best_in_batch;
  point best_fresh;
  double best_score = 0.0;
  double best_in_batch_score = 0.0;
  double best_fresh_score = 0.0;
  bool have_best = false;
  bool have_in_batch = false;
  bool have_fresh = false;
  for (std::size_t draw = 0; draw < n; ++draw) {
    point& p = pool_[draw];
    const double score = scores_[draw];
    const std::uint64_t key = key_of(p);
    if (!have_best || score < best_score) {
      best = p;
      best_score = score;
      have_best = true;
    }
    if (batch_keys.count(key) != 0) {
      continue;
    }
    if (!have_in_batch || score < best_in_batch_score) {
      best_in_batch = p;
      best_in_batch_score = score;
      have_in_batch = true;
    }
    if ((!have_fresh || score < best_fresh_score) &&
        measured_.count(key) == 0) {
      best_fresh = std::move(p);
      best_fresh_score = score;
      have_fresh = true;
    }
  }
  point chosen = have_fresh ? std::move(best_fresh)
                 : have_in_batch ? std::move(best_in_batch)
                                 : std::move(best);
  batch_keys.insert(key_of(chosen));
  return chosen;
}

point surrogate_arm::next_point() {
  const std::vector<point> batch = propose_points(1);
  return batch.front();
}

void surrogate_arm::report(double cost) {
  std::vector<double> costs{cost};
  report_points(costs);
}

std::vector<point> surrogate_arm::propose_points(std::size_t max_points) {
  const std::size_t slots =
      std::clamp<std::size_t>(max_points, 1, opts_.batch_cap);
  std::vector<point> batch;
  batch.reserve(slots);
  std::unordered_set<std::uint64_t> batch_keys;
  for (std::size_t s = 0; s < slots; ++s) {
    batch.push_back(propose_one(batch_keys));
  }
  pending_ = batch;
  return batch;
}

void surrogate_arm::report_points(const std::vector<double>& costs) {
  const std::size_t reported = std::min(costs.size(), pending_.size());
  for (std::size_t i = 0; i < reported; ++i) {
    const double cost = costs[i];
    feature_vector features(2 * pending_[i].size());
    encode(pending_[i], features.data());
    trainer_.add(std::move(features), cost, !std::isfinite(cost));
    measured_.insert(key_of(pending_[i]));
  }
  pending_.clear();
}

}  // namespace atf::search
