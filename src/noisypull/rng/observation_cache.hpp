// Per-round cached observation sampler for the aggregate-style engines.
//
// In AggregateEngine the law of one agent's observation counts is fixed for
// the whole round: SymbolCounts ~ Multinomial(h, q) with the same q for all
// agents that share a channel (all n of them in the default shared mode).  The
// conditional-binomial decomposition (rng/binomial.hpp) pays d−1 binomial
// draws per agent; this sampler instead treats the *outcome space* — the
// C(h+d−1, d−1) count vectors summing to h (h+1 outcomes for the binary
// alphabet) — as one discrete distribution and inverts its CDF: one uniform
// per agent, one table lookup.  The table is built once per round and
// amortized over all n agents.
//
// Determinism contract (tests/test_parallel_kernel.cpp): toggling the cache
// may not change the trajectory.  Both modes therefore realize the *same*
// map (uniform u → outcome): the cumulative masses are the partial sums of
// the outcome pmfs in one canonical enumeration order, and
//   cached    = precompute the partial sums, search them for the first
//               sum above u·total,
//   uncached  = recompute the identical partial-sum walk per draw.
// Same u, same sums, same outcome — bit for bit.  The cached search (see
// search() below) takes O(1) expected steps at every table size: a
// branchless count for small tables, a guide table (Chen & Asau's indexed
// search) built next to the sums for larger ones; both return
// upper_bound's index, so the strategy never changes a draw.  When the
// outcome space exceeds kMaxOutcomes (large h with a k-ary alphabet, or
// h > 16383 binary) both modes fall back to the conditional-binomial
// decomposition, which is again identical on both sides of the toggle.
//
// Amortization gate: the inverse-CDF table costs one full enumeration of
// the outcome space per round, which only pays for itself when at least as
// many draws as outcomes will amortize it.  reset() therefore takes the
// expected number of draws this round (the engines pass the number of
// agents sharing the sampler: n, or a channel group's size) and falls back to
// the decomposition when the outcome space is larger.  The chosen mode is a
// function of (h, d, expected_draws) only — NEVER of the cache toggle — so
// the cache on/off trajectory-invariance contract above is preserved; the
// gate itself changes trajectories only across releases, which is why the
// experiment result cache folds a schema version into its keys
// (analysis/scheduler.hpp).
//
// Exactness: outcome pmfs are evaluated in log space from a log-factorial
// table, so the distribution is the true multinomial up to double rounding
// (~1e-15 relative) — held to the same chi-square harness as the BINV/BTRS
// samplers (tests/test_observation_cache.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "noisypull/common/check.hpp"
#include "noisypull/common/symbols.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

class ObservationSampler {
 public:
  enum class Mode {
    InverseCdf,     // outcome-level inversion (cacheable)
    Decomposition,  // conditional-binomial fallback (outcome space too big)
  };

  // Outcome-space cap for the inverse-CDF path; above it the per-round table
  // would dwarf the n agents it amortizes over.
  static constexpr std::uint64_t kMaxOutcomes = 1ULL << 14;

  // Prepares the sampler for one round of i.i.d. Multinomial(h, weights)
  // draws.  weights must be non-negative with a positive sum when h > 0;
  // their length is the alphabet size d (2 <= d <= kMaxAlphabet).  `cache`
  // selects table memoization; it never changes the sampled values.
  // `expected_draws` is the number of draws this reset will serve (see the
  // amortization gate above); the default keeps the inverse-CDF path for
  // any outcome space within kMaxOutcomes.
  void reset(std::uint64_t h, std::span<const double> weights, bool cache,
             std::uint64_t expected_draws = kNoDrawEstimate);

  // Sentinel for reset(): no draw-count estimate, gate on kMaxOutcomes only.
  static constexpr std::uint64_t kNoDrawEstimate =
      ~static_cast<std::uint64_t>(0);

  Mode mode() const noexcept { return mode_; }
  bool cached() const noexcept { return !cum_.empty(); }

  // Draws one count vector into obs (obs.size must equal d).  Thread-safe:
  // const, touches only the given rng and obs.  InverseCdf mode consumes
  // exactly one uniform per draw in both cache settings.  The cached
  // inverse-CDF draw is defined here so the engines' per-agent loops can
  // inline it; the decomposition and the uncached walk stay out of line.
  void sample(Rng& rng, SymbolCounts& obs) const {
    NOISYPULL_CHECK(obs.size == d_,
                    "observation buffer does not match the sampler alphabet");
    if (mode_ == Mode::Decomposition || cum_.empty()) {
      sample_uncached(rng, obs);
      return;
    }
    const std::size_t idx = search(rng.next_double() * total_mass_);
    if (d_ == 2) {
      obs.c[0] = h_ - static_cast<std::uint64_t>(idx);
      obs.c[1] = static_cast<std::uint64_t>(idx);
    } else {
      for (std::size_t s = 0; s < d_; ++s) obs.c[s] = outcomes_[idx][s];
    }
  }

  // Size of the enumerated outcome space.  InverseCdf mode only.
  std::uint64_t num_outcomes() const noexcept { return outcome_count_; }

  // Crossover of the cached search: up to this many outcomes it runs the
  // branchless linear count, above it the guide table.  Both return the
  // identical index, so the threshold is wall-clock-only and can never
  // affect a trajectory.
  static constexpr std::size_t kLinearScanOutcomes = 12;

  // Called by split() once per outcome that received a positive share:
  // (share, outcome count vector of length d).
  using SplitVisitor =
      std::function<void(std::uint64_t, std::span<const std::uint64_t>)>;

  // Splits k i.i.d. Multinomial(h, weights) draws over the outcome space in
  // one pass — the population-level counterpart of k sample() calls: the
  // vector of per-outcome shares is exactly Multinomial(k, outcome pmf),
  // realized as the conditional-binomial chain along the canonical
  // enumeration (rounding slack lands on the last positive-pmf outcome,
  // mirroring sample_multinomial's zero-tail rule).  O(#outcomes) binomial
  // draws regardless of k — the lumped engine's per-round workhorse
  // (sim/lumped_engine.hpp).  Requires InverseCdf mode: when the gate chose
  // Decomposition the outcome space is too large to enumerate and callers
  // must fall back to per-draw sample().  Independent of the cache toggle
  // (the walk never touches the cached partial sums).
  void split(Rng& rng, std::uint64_t k, const SplitVisitor& visit) const;

 private:
  // Walks the canonical outcome enumeration; visit(pmf, counts) for every
  // outcome in order.  Both the reset-time table build and the uncached
  // per-draw walk run exactly this code, which is what makes the cache
  // toggle trajectory-invariant.
  template <typename Visit>
  void enumerate(Visit&& visit) const;

  // Cached inverse-CDF search: the index of the first partial sum above
  // target, clamped to the last outcome — std::upper_bound's answer on cum_.
  // Small tables take a branchless count of the sums <= target among all
  // but the last (which is the clamp), with no data-dependent branch to
  // mispredict on random targets.  Larger ones start from the target's
  // guide bucket and scan down, then up, to that same index: the scans make
  // the result independent of how the bucket edge rounded, and the guide
  // keeps them O(1) steps on average.
  std::size_t search(double target) const {
    const std::size_t m = cum_.size();
    if (m <= kLinearScanOutcomes) {
      std::size_t le = 0;
      for (std::size_t i = 0; i + 1 < m; ++i) le += cum_[i] <= target ? 1 : 0;
      return le;
    }
    std::size_t bucket = static_cast<std::size_t>(target * guide_scale_);
    if (bucket >= guide_.size()) bucket = guide_.size() - 1;
    std::size_t i = guide_[bucket];
    while (i > 0 && cum_[i - 1] > target) --i;
    while (i + 1 < m && cum_[i] <= target) ++i;
    return i;
  }

  double outcome_pmf(std::span<const std::uint64_t> counts) const;

  // sample() without a cached table: the conditional-binomial decomposition,
  // or the inverse-CDF walk over the identical partial sums.
  void sample_uncached(Rng& rng, SymbolCounts& obs) const;

  std::uint64_t h_ = 0;
  std::size_t d_ = 0;
  Mode mode_ = Mode::Decomposition;
  std::array<double, kMaxAlphabet> weights_{};  // decomposition fallback
  std::array<double, kMaxAlphabet> logp_{};     // log(w_i / W); 0-weight cells
  std::array<bool, kMaxAlphabet> has_mass_{};   //   flagged instead of -inf
  std::vector<double> log_factorial_;           // lf[k] = log k!, k <= h
  double total_mass_ = 0.0;  // full pmf sum in enumeration order (~1)
  std::uint64_t outcome_count_ = 0;  // outcome-space size (InverseCdf mode)

  // Cached inverse CDF (empty when the cache is disabled).
  std::vector<double> cum_;
  // Guide table (Chen & Asau 1974) over kGuideBucketsPerOutcome · m
  // equal-mass buckets of [0, total_mass_): guide_[j] is the first index
  // whose partial sum exceeds bucket j's lower edge, clamped to m − 1.
  // Built only above kLinearScanOutcomes; guide_scale_ = #buckets /
  // total_mass_ maps a target to its bucket.  Four buckets per outcome keep
  // most targets' buckets free of any outcome boundary, so the scans in
  // search() rarely take (and mispredict) a step.
  static constexpr std::size_t kGuideBucketsPerOutcome = 4;
  std::vector<std::uint32_t> guide_;
  double guide_scale_ = 0.0;
  // Outcome decode for d > 2 (binary outcomes decode analytically:
  // index k → counts (h−k, k) under the canonical enumeration).
  std::vector<std::array<std::uint32_t, kMaxAlphabet>> outcomes_;
};

// The per-agent observation law of one round, as the engines hand it to
// PullProtocol::update_block (core/protocol.hpp): agent i draws from
// samplers[group_of[i]], or from samplers[0] when group_of is null (shared
// mode: every agent sees the same channel).
struct ObservationLaw {
  const ObservationSampler* samplers = nullptr;
  const std::uint32_t* group_of = nullptr;

  const ObservationSampler& of(std::uint64_t agent) const noexcept {
    // group_of holds 32-bit ids; widen explicitly so every index expression
    // is 64-bit before arithmetic (clang-tidy bugprone-implicit-widening
    // gate, .clang-tidy).
    return group_of == nullptr
               ? samplers[0]
               : samplers[static_cast<std::size_t>(group_of[agent])];
  }
};

}  // namespace noisypull
