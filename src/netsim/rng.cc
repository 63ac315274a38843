#include "netsim/rng.h"

#include <cmath>

namespace ednsm::netsim {

namespace {
constexpr double kPi = 3.14159265358979323846;

std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
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

double Rng::next_double() noexcept {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) noexcept {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) noexcept {
  // -mean * ln(U), guarding U = 0.
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = next_double();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double x_m, double alpha) noexcept {
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return x_m / std::pow(u, 1.0 / alpha);
}

Rng Rng::fork(std::uint64_t key) const noexcept {
  // Mix the current state with the key through splitmix; does not advance *this.
  std::uint64_t sm = s_[0] ^ rotl(s_[2], 13) ^ (key * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(sm));
}

}  // namespace ednsm::netsim
