#include "common/rng.h"

#include "common/assert.h"

namespace anu {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  // Seed expansion per the xoshiro authors' recommendation: never feed the
  // raw user seed straight into state (all-zero state is degenerate).
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
      0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  // The state stays in locals, as in fill_doubles, so the 256 steps run in
  // registers; each step is next()'s recurrence without its output.
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      // All ones when bit b is set, so the accumulate needs no branch.
      const std::uint64_t take = 0 - ((word >> b) & 1);
      a0 ^= s0 & take;
      a1 ^= s1 & take;
      a2 ^= s2 & take;
      a3 ^= s3 & take;
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = rotl(s3, 45);
    }
  }
  s_ = {a0, a1, a2, a3};
}

Xoshiro256 Xoshiro256::substream(std::uint64_t seed, std::uint64_t index) {
  // Mixing the index into the seed gives independent streams without paying
  // `index` jump() calls; the 2^128 jump then separates identical seeds.
  Xoshiro256 rng(seed ^ mix64(index + 0x5851f42d4c957f2dULL));
  rng.jump();
  return rng;
}

double Xoshiro256::next_double() {
  // 53 top bits -> [0, 1) with full double precision.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Xoshiro256::fill_doubles(std::span<double> out) {
  // Same recurrence and output function as next()/next_double(), with the
  // state held in locals so the compiler keeps it in registers for the
  // whole batch instead of loading and spilling `s_` per draw.
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  for (double& slot : out) {
    const std::uint64_t result = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    slot = static_cast<double>(result >> 11) * 0x1.0p-53;
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  ANU_REQUIRE(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  __extension__ typedef unsigned __int128 u128;
  std::uint64_t x = next();
  u128 m = static_cast<u128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<u128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace anu
