#include "common/distributions.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"

namespace anu {

namespace {

/// Box–Muller, keeping the cosine branch of the pair.
double standard_normal_from_uniforms(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log1p(-u1));
  return r * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace

UniformReal::UniformReal(double lo, double hi) : lo_(lo), width_(hi - lo) {
  ANU_REQUIRE(hi > lo);
}

double UniformReal::sample(Xoshiro256& rng) const {
  return lo_ + width_ * rng.next_double();
}

Exponential::Exponential(double lambda) : lambda_(lambda) {
  ANU_REQUIRE(lambda > 0.0);
}

double Exponential::sample(Xoshiro256& rng) const {
  // -log(1-u) avoids log(0) since next_double() < 1.
  return -std::log1p(-rng.next_double()) / lambda_;
}

BoundedPareto::BoundedPareto(double shape, double lo, double hi)
    : alpha_(shape),
      lo_(lo),
      hi_(hi),
      lo_pow_(std::pow(lo, shape)),
      hi_pow_(std::pow(hi, shape)),
      mass_(1.0 - lo_pow_ / hi_pow_),
      inv_alpha_(1.0 / shape) {
  ANU_REQUIRE(shape > 0.0);
  ANU_REQUIRE(lo > 0.0 && hi > lo);
}

double BoundedPareto::sample(Xoshiro256& rng) const {
  return from_uniform(rng.next_double());
}

double BoundedPareto::mean() const {
  if (alpha_ == 1.0) {
    return std::log(hi_ / lo_) * lo_ / (1.0 - lo_ / hi_);
  }
  const double num = lo_pow_ / (alpha_ - 1.0) *
                     (1.0 / std::pow(lo_, alpha_ - 1.0) -
                      1.0 / std::pow(hi_, alpha_ - 1.0));
  return alpha_ * num / mass_;
}

Zipf::Zipf(std::size_t n, double s) {
  ANU_REQUIRE(n > 0);
  ANU_REQUIRE(s >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding shortfall
}

std::size_t Zipf::sample(Xoshiro256& rng) const {
  const double u = rng.next_double();
  // First rank whose CDF value exceeds u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double Zipf::pmf(std::size_t rank) const {
  ANU_REQUIRE(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

Lognormal::Lognormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  ANU_REQUIRE(sigma >= 0.0);
}

double Lognormal::sample(Xoshiro256& rng) const {
  const double u1 = rng.next_double();
  const double u2 = rng.next_double();
  return from_uniforms(u1, u2);
}

double Lognormal::from_uniforms(double u1, double u2) const {
  return std::exp(mu_ + sigma_ * standard_normal_from_uniforms(u1, u2));
}

double Lognormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double sample_standard_normal(Xoshiro256& rng) {
  // Consume exactly two uniforms per call for stream stability.
  const double u1 = rng.next_double();
  const double u2 = rng.next_double();
  return standard_normal_from_uniforms(u1, u2);
}

}  // namespace anu
