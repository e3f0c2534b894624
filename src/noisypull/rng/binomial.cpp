#include "noisypull/rng/binomial.hpp"

#include <algorithm>
#include <cmath>

#include "noisypull/common/check.hpp"

namespace noisypull {
namespace {

// Tail of the Stirling series: log(k!) = stirling + (k+1/2)log(k+1) - (k+1)
// + log(sqrt(2*pi)) shifted so that the BTRS acceptance test below telescopes
// exactly.  Exact table for k <= 9, 3-term series otherwise (error < 1e-15
// for k >= 10, far below the acceptance test's tolerance needs).
double stirling_approx_tail(double k) noexcept {
  static constexpr double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k <= 9.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}

// Inversion ("BINV"): walk the cdf from 0.  Expected O(n p) iterations.
// Requires p <= 0.5 and n * p small enough that q^n does not underflow
// (guaranteed by the caller's cutoff).
//
// Round-off in the running pmf recurrence can push the walk past x = n with
// residual mass left; the classic remedy restarts the whole inversion with a
// fresh uniform.  For a healthy (n, p) the restart probability is ~ the
// accumulated rounding error (≪ 1e-10), so consecutive restarts certify a
// pathological input rather than bad luck — after kMaxRestarts the sampler
// returns the mode-adjacent boundary n (where the unaccounted mass lives)
// instead of looping unboundedly.
//
// Once the running pmf r underflows to 0 with residual mass u > 0 left, the
// walk can no longer stop before x > n, where it would restart with a fresh
// uniform; restarting at the underflow instead draws the same values and
// consumes the same uniforms, but costs O(x) rather than O(n) steps — the
// difference between microseconds and hours at n = 10¹².
constexpr int kBinvMaxRestarts = 64;

std::uint64_t binv(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));
  double u = rng.next_double();
  std::uint64_t x = 0;
  int restarts = 0;
  while (u > r) {
    u -= r;
    ++x;
    if (x <= n) r *= (a / static_cast<double>(x) - s);
    if (x > n || r == 0.0) {  // numeric guard against accumulated round-off
      if (++restarts >= kBinvMaxRestarts) return n;
      x = 0;
      r = std::pow(q, static_cast<double>(n));
      u = rng.next_double();
    }
  }
  return x;
}

// Hörmann's BTRS transformed-rejection sampler.  Exact; requires p <= 0.5
// and n * p >= 10.
std::uint64_t btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double np = nd * p;
  const double q = 1.0 - p;
  const double stddev = std::sqrt(np * q);
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = np + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1) * p);
  for (;;) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2 * a / us + b) * u + c);
    if (kf < 0 || kf > nd) continue;
    // Fast acceptance region (covers ~86% of draws).
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kf);
    // Exact acceptance test against the true pmf ratio f(k)/f(m).
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1) / (r * (nd - m + 1))) +
        (nd + 1) * std::log((nd - m + 1) / (nd - kf + 1)) +
        (kf + 0.5) * std::log(r * (nd - kf + 1) / (kf + 1)) +
        stirling_approx_tail(m) + stirling_approx_tail(nd - m) -
        stirling_approx_tail(kf) - stirling_approx_tail(nd - kf);
    if (v <= upper) return static_cast<std::uint64_t>(kf);
  }
}

}  // namespace

std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p) {
  NOISYPULL_CHECK(p >= 0.0 && p <= 1.0, "binomial probability outside [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - sample_binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return binv(rng, n, p);
  return btrs(rng, n, p);
}

void sample_multinomial(Rng& rng, std::uint64_t n,
                        std::span<const double> weights,
                        std::span<std::uint64_t> counts) {
  NOISYPULL_CHECK(weights.size() == counts.size(),
                  "weights/counts size mismatch");
  NOISYPULL_CHECK(!weights.empty(), "empty multinomial support");
  double wsum = 0.0;
  for (double w : weights) {
    NOISYPULL_CHECK(w >= 0.0, "negative multinomial weight");
    wsum += w;
  }
  NOISYPULL_CHECK(n == 0 || wsum > 0.0, "zero total weight with n > 0");
  const std::size_t k = weights.size();
  std::fill(counts.begin(), counts.end(), 0);
  if (n == 0) return;
  // The conditional-binomial chain must terminate at the last *positive*
  // weight.  Handing the remainder to the final bucket unconditionally
  // leaks counts into zero-probability cells: for the last positive bucket
  // p = w/wsum rounds to just below 1, sample_binomial undershoots, and the
  // leftover lands in a bucket whose weight is 0.  For weight vectors whose
  // final entry is positive the loop below is iteration- and RNG-identical
  // to the plain 0..k-2 chain (zero-weight middle buckets draw p = 0, which
  // consumes no randomness).
  std::size_t last_pos = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (weights[i] > 0.0) last_pos = i;
  }
  std::uint64_t remaining = n;
  for (std::size_t i = 0; i < last_pos; ++i) {
    if (remaining == 0) continue;
    if (wsum <= 0.0) break;  // running sum exhausted by round-off
    double p = weights[i] / wsum;
    if (p > 1.0) p = 1.0;  // guard round-off in the running weight sum
    counts[i] = sample_binomial(rng, remaining, p);
    remaining -= counts[i];
    wsum -= weights[i];
  }
  counts[last_pos] = remaining;
}

std::size_t sample_discrete(Rng& rng, std::span<const double> weights) {
  NOISYPULL_CHECK(!weights.empty(), "empty discrete support");
  double wsum = 0.0;
  for (double w : weights) {
    NOISYPULL_CHECK(w >= 0.0, "negative discrete weight");
    wsum += w;
  }
  NOISYPULL_CHECK(wsum > 0.0, "zero total discrete weight");
  double u = rng.next_double() * wsum;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace noisypull
