// Deterministic random number generation for the simulator.
//
// xoshiro256** seeded via splitmix64, plus the distributions the path and
// server models need. We do not use <random> engines/distributions because
// their outputs are not portable across standard library implementations,
// and campaign reproducibility from (spec, seed) is a design requirement.
#pragma once

#include <array>
#include <cstdint>

namespace ednsm::netsim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  // Uniform on [0, 2^64).
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  // Uniform on [0, 1).
  [[nodiscard]] double next_double() noexcept;

  // Uniform integer on [0, n); n must be > 0.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  [[nodiscard]] bool bernoulli(double p) noexcept;

  // Exponential with the given mean (inverse-CDF method).
  [[nodiscard]] double exponential(double mean) noexcept;

  // Lognormal parameterized by the *underlying* normal's mu/sigma.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  // Standard normal via Box-Muller (one value per call; no caching so the
  // stream stays a pure function of call count).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  // Pareto (heavy tail) with scale x_m > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double x_m, double alpha) noexcept;

  // Derive an independent stream for a named component: fork(k) streams are
  // decorrelated from this one and from each other.
  [[nodiscard]] Rng fork(std::uint64_t key) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

// splitmix64: used for seeding and for stateless hash-style derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace ednsm::netsim
