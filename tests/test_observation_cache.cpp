// ObservationSampler correctness: distribution exactness (same chi-square
// harness as the BINV/BTRS samplers in test_binomial.cpp), cache/uncached
// draw equivalence, mode selection, fallback behavior, and input validation.
#include "noisypull/rng/observation_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "noisypull/analysis/stats.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {
namespace {

SymbolCounts draw(const ObservationSampler& sampler, Rng& rng, std::size_t d) {
  SymbolCounts obs(d);
  sampler.sample(rng, obs);
  return obs;
}

TEST(ObservationSampler, ModeSelection) {
  ObservationSampler s;
  const std::vector<double> q2 = {0.7, 0.3};

  s.reset(16, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  EXPECT_TRUE(s.cached());

  s.reset(16, q2, /*cache=*/false);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  EXPECT_FALSE(s.cached());

  // Binary: h+1 outcomes, so the cap trips exactly past kMaxOutcomes − 1.
  s.reset(ObservationSampler::kMaxOutcomes - 1, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  s.reset(ObservationSampler::kMaxOutcomes, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
  EXPECT_FALSE(s.cached());

  // k-ary: C(h+d−1, d−1) outcomes grows fast; h=100, d=4 → C(103,3) > 2^14.
  const std::vector<double> q4 = {0.4, 0.3, 0.2, 0.1};
  s.reset(20, q4, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  s.reset(100, q4, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);

  // h == 0 has a single trivial outcome; decomposition handles it directly.
  s.reset(0, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
}

TEST(ObservationSampler, AmortizationGateUsesExpectedDraws) {
  // The mode is a function of (h, d, expected_draws) alone — never of the
  // cache flag.  A table whose build cost cannot amortize over the draws it
  // will serve this round is skipped in favor of direct decomposition.
  ObservationSampler s;
  const std::vector<double> q2 = {0.7, 0.3};

  for (const bool cache : {true, false}) {
    // Plenty of draws: the 65-outcome table pays for itself.
    s.reset(64, q2, cache, /*expected_draws=*/20000);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
    // 65 outcomes but only 4 draws: building the table costs more than it
    // saves, so the gate picks decomposition.
    s.reset(64, q2, cache, /*expected_draws=*/4);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
    // No estimate: the gate defaults to building the table.
    s.reset(64, q2, cache);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  }

  // The outcome cap dominates regardless of how many draws are promised.
  s.reset(ObservationSampler::kMaxOutcomes, q2, /*cache=*/true,
          /*expected_draws=*/1000000);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);

  // With identical estimates the cache flag never changes the draw stream.
  ObservationSampler a, b;
  a.reset(64, q2, /*cache=*/true, /*expected_draws=*/4);
  b.reset(64, q2, /*cache=*/false, /*expected_draws=*/4);
  Rng rng_a(7), rng_b(7);
  for (int i = 0; i < 100; ++i) {
    const auto x = draw(a, rng_a, 2);
    const auto y = draw(b, rng_b, 2);
    ASSERT_EQ(x[1], y[1]) << "draw " << i;
  }
}

TEST(ObservationSampler, DrawsSumToHAndRespectZeroWeights) {
  ObservationSampler s;
  const std::vector<double> q = {0.5, 0.0, 0.5};
  for (const bool cache : {true, false}) {
    s.reset(12, q, cache);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const auto obs = draw(s, rng, q.size());
      EXPECT_EQ(obs.total(), 12u);
      EXPECT_EQ(obs[1], 0u) << "mass on a zero-weight symbol";
    }
  }
}

TEST(ObservationSampler, ZeroRoundsDrawIsAllZero) {
  ObservationSampler s;
  const std::vector<double> q = {0.0, 0.0};  // h == 0 admits zero total mass
  s.reset(0, q, /*cache=*/true);
  Rng rng(5);
  const auto obs = draw(s, rng, 2);
  EXPECT_EQ(obs.total(), 0u);
}

TEST(ObservationSampler, CacheToggleIsDrawForDrawIdentical) {
  // Same seed, same draw index → identical count vector with the table on
  // and off; this is the micro-level version of the engine digest test.
  // The inputs put the cached search on both sides of kLinearScanOutcomes
  // and at kMaxOutcomes (binary h + 1 outcomes), give it runs of equal
  // partial sums (zero-weight symbols), and a near-degenerate law whose
  // guide buckets nearly all start at one end of the table.
  struct Input {
    std::uint64_t h;
    std::vector<double> q;
  };
  const std::vector<Input> inputs = {
      {9, {0.35, 0.05, 0.4, 0.2}},
      {6, {0.3, 0.7}},
      {6, {0.2, 0.5, 0.3}},
      {1, {0.3, 0.7}},
      {4, {0.3, 0.7}},
      {11, {0.3, 0.7}},
      {12, {0.3, 0.7}},
      {63, {0.3, 0.7}},
      {64, {0.3, 0.7}},
      {126, {0.3, 0.7}},
      {ObservationSampler::kMaxOutcomes - 1, {0.3, 0.7}},
      {3, {0.5, 0.0, 0.5}},
      {12, {0.5, 0.0, 0.5}},
      {9, {0.35, 0.0, 0.4, 0.25}},
      {3, {0.2, 0.1, 0.0, 0.2, 0.1, 0.15, 0.05, 0.2}},
      {64, {1.0 - 1e-12, 1e-12}},
      {64, {1e-12, 1.0 - 1e-12}},
  };
  for (const Input& in : inputs) {
    ObservationSampler cached, uncached;
    cached.reset(in.h, in.q, /*cache=*/true);
    uncached.reset(in.h, in.q, /*cache=*/false);
    ASSERT_EQ(cached.mode(), ObservationSampler::Mode::InverseCdf);
    Rng rng_a(42), rng_b(42);
    for (int i = 0; i < 500; ++i) {
      const auto a = draw(cached, rng_a, in.q.size());
      const auto b = draw(uncached, rng_b, in.q.size());
      for (std::size_t sym = 0; sym < in.q.size(); ++sym) {
        ASSERT_EQ(a[sym], b[sym]) << "h=" << in.h << " d=" << in.q.size()
                                  << " draw " << i << " symbol " << sym;
      }
    }
  }
}

TEST(ObservationSampler, DecompositionFallbackMatchesMultinomialSampler) {
  // Above the outcome cap the sampler must be byte-compatible with
  // sample_multinomial — same rng consumption, same counts.
  ObservationSampler s;
  const std::vector<double> q = {0.25, 0.25, 0.25, 0.25};
  s.reset(100, q, /*cache=*/true);
  ASSERT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
  Rng rng_a(9), rng_b(9);
  for (int i = 0; i < 50; ++i) {
    const auto a = draw(s, rng_a, q.size());
    std::uint64_t expect[4];
    sample_multinomial(rng_b, 100, q, expect);
    for (std::size_t sym = 0; sym < 4; ++sym) {
      ASSERT_EQ(a[sym], expect[sym]) << "draw " << i << " symbol " << sym;
    }
  }
}

// Chi-square goodness of fit of the binary inverse-CDF path against the
// exact Binomial(h, p) law — identical harness to test_binomial.cpp: bin
// the support, accumulate exact binned probabilities from the log pmf,
// reject at the 99.9% critical value.
double binned_gof(std::uint64_t h, double p, bool cache, std::uint64_t seed,
                  std::span<const std::uint64_t> edges, int draws) {
  ObservationSampler s;
  const std::vector<double> q = {1.0 - p, p};
  s.reset(h, q, cache);
  const std::size_t bins = edges.size() + 1;
  std::vector<std::uint64_t> observed(bins, 0);
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t x = draw(s, rng, 2)[1];
    std::size_t b = 0;
    while (b < edges.size() && x >= edges[b]) ++b;
    observed[b] += 1;
  }
  std::vector<double> expected(bins, 0.0);  // binned exact probabilities
  double logc = static_cast<double>(h) * std::log(1.0 - p);  // log pmf at 0
  const double lodds = std::log(p) - std::log(1.0 - p);
  for (std::uint64_t k = 0; k <= h; ++k) {
    std::size_t b = 0;
    while (b < edges.size() && k >= edges[b]) ++b;
    expected[b] += std::exp(logc);
    if (k < h) {
      logc += std::log(static_cast<double>(h - k)) -
              std::log(static_cast<double>(k + 1)) + lodds;
    }
  }
  return chi_square_statistic(observed, expected);
}

TEST(ObservationSampler, BinaryGoodnessOfFit) {
  // h = 40, p = 0.2: mean 8, sd ≈ 2.5; seven bins around the bulk.
  const std::uint64_t edges[] = {5, 7, 8, 9, 10, 12};
  const double crit = chi_square_critical_999(6);
  EXPECT_LT(binned_gof(40, 0.2, /*cache=*/true, 601, edges, 120000), crit);
  EXPECT_LT(binned_gof(40, 0.2, /*cache=*/false, 602, edges, 120000), crit);
}

TEST(ObservationSampler, KaryMarginalGoodnessOfFit) {
  // A multinomial marginal is Binomial(h, p_i): test symbol 2 of a 4-ary
  // sampler through the same binned harness.
  ObservationSampler s;
  const std::vector<double> q = {0.3, 0.2, 0.4, 0.1};
  s.reset(25, q, /*cache=*/true);
  ASSERT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  const std::uint64_t h = 25;
  const double p = 0.4;
  const std::uint64_t edges[] = {7, 9, 10, 11, 12, 14};
  const std::size_t bins = 7;
  std::vector<std::uint64_t> observed(bins, 0);
  Rng rng(603);
  const int draws = 120000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t x = draw(s, rng, 4)[2];
    std::size_t b = 0;
    while (b < 6 && x >= edges[b]) ++b;
    observed[b] += 1;
  }
  std::vector<double> expected(bins, 0.0);  // binned exact probabilities
  double logc = static_cast<double>(h) * std::log(1.0 - p);
  const double lodds = std::log(p) - std::log(1.0 - p);
  for (std::uint64_t k = 0; k <= h; ++k) {
    std::size_t b = 0;
    while (b < 6 && k >= edges[b]) ++b;
    expected[b] += std::exp(logc);
    if (k < h) {
      logc += std::log(static_cast<double>(h - k)) -
              std::log(static_cast<double>(k + 1)) + lodds;
    }
  }
  EXPECT_LT(chi_square_statistic(observed, expected),
            chi_square_critical_999(6));
}

TEST(ObservationSampler, RejectsInvalidInputs) {
  ObservationSampler s;
  const std::vector<double> negative = {0.5, -0.1};
  EXPECT_THROW(s.reset(4, negative, true), std::invalid_argument);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(s.reset(4, zero, true), std::invalid_argument);
  const std::vector<double> tiny = {1.0};
  EXPECT_THROW(s.reset(4, tiny, true), std::invalid_argument);
  ObservationSampler fresh;
  const std::vector<double> ok = {0.5, 0.5};
  fresh.reset(4, ok, true);
  SymbolCounts wrong(3);
  Rng rng(1);
  EXPECT_THROW(fresh.sample(rng, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace noisypull
