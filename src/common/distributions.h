// Random variate distributions used by the workload substrate.
//
// The paper's synthetic workload (§5.1, §5.2.1) needs: uniform file-set
// weights X ~ U[1,10], heavy-tailed Pareto request inter-arrival times, and
// (for the DFSTrace-like synthesizer) skewed popularity, for which we use
// Zipf, plus lognormal service-time jitter. All are implemented by inversion
// or rejection against Xoshiro256 so results are reproducible.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace anu {

/// Uniform real on [lo, hi).
class UniformReal {
 public:
  UniformReal(double lo, double hi);
  double sample(Xoshiro256& rng) const;

 private:
  double lo_;
  double width_;
};

/// Exponential with rate lambda (mean 1/lambda). Inversion method.
class Exponential {
 public:
  explicit Exponential(double lambda);
  double sample(Xoshiro256& rng) const;
  [[nodiscard]] double mean() const { return 1.0 / lambda_; }

 private:
  double lambda_;
};

/// Bounded (truncated) Pareto on [lo, hi] with shape alpha.
///
/// The paper drives request arrivals with "a Pareto distribution that is
/// heavy-tailed" (§5.2.1). We bound the tail so a single astronomically
/// large gap cannot silence a file set for the whole simulation; the bound
/// is far enough out (default hi/lo = 1e4) that the tail still dominates
/// variance. Inversion of the truncated CDF.
class BoundedPareto {
 public:
  BoundedPareto(double shape, double lo, double hi);
  double sample(Xoshiro256& rng) const;
  /// The inversion transform behind sample(): maps a uniform u in [0, 1)
  /// to a variate. Exposed so bulk callers can pair it with
  /// Xoshiro256::fill_doubles and keep the stream bit-identical to
  /// repeated sample() calls. Inverse CDF of the truncated Pareto,
  ///   F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a).
  [[nodiscard]] double from_uniform(double u) const {
    return lo_ / std::pow(1.0 - u * mass_, inv_alpha_);
  }
  /// Analytic mean of the truncated distribution.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double shape() const { return alpha_; }

 private:
  double alpha_;
  double lo_;
  double hi_;
  double lo_pow_;     // lo^alpha
  double hi_pow_;     // hi^alpha
  double mass_;       // 1 - lo^alpha / hi^alpha
  double inv_alpha_;  // 1 / alpha
};

/// Zipf over ranks {0, .., n-1} with exponent s; rank 0 most popular.
/// Sampled by inversion on the precomputed CDF — n is small (tens of file
/// sets) throughout the reproduction so O(log n) per sample is fine.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Xoshiro256& rng) const;
  /// Probability mass of rank r.
  [[nodiscard]] double pmf(std::size_t rank) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Lognormal: exp(N(mu, sigma^2)). Box-Muller on the underlying normal.
class Lognormal {
 public:
  Lognormal(double mu, double sigma);
  double sample(Xoshiro256& rng) const;
  /// The transform behind sample(), from its two uniforms in draw order;
  /// the bulk counterpart of sample(), as BoundedPareto::from_uniform is.
  [[nodiscard]] double from_uniforms(double u1, double u2) const;
  [[nodiscard]] double mean() const;

 private:
  double mu_;
  double sigma_;
};

/// Standard normal variate (Box–Muller, one value per call; the pair's
/// second value is discarded to keep the stream position deterministic
/// regardless of call interleaving).
double sample_standard_normal(Xoshiro256& rng);

}  // namespace anu
