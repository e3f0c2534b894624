// Shared harness for the exact-chain oracle tests: replicate runners that
// turn a Monte-Carlo engine into an empirical per-round display
// distribution, mirrors of FaultyEngine's deterministic schedules, and the
// TV / exact-mean comparison against theory/ExactChain.
//
// Statistical contract (see tv_tolerance in theory/exact_chain.hpp): every
// comparison uses a tolerance derived from the oracle's exact support size
// and the replicate count, at a per-check failure probability alpha =
// exp(-log_inv_alpha).  The callers pass log_inv_alpha large enough that a
// whole fuzz campaign's union bound stays far below flake territory
// (log_inv_alpha = 30 → alpha ≈ 1e-13 per check).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "noisypull/noisypull.hpp"

namespace noisypull::oracle_test {

using ProtocolFactory = std::function<std::unique_ptr<PullProtocol>()>;
using EngineFactory = std::function<std::unique_ptr<Engine>()>;
// Maps (protocol, agent, round) to the symbol the population *sees* — the
// hook where FaultyEngine's forged Byzantine displays are reproduced.
using DisplayView =
    std::function<Symbol(const PullProtocol&, std::uint64_t, std::uint64_t)>;

inline DisplayView honest_view() {
  return [](const PullProtocol& p, std::uint64_t agent, std::uint64_t round) {
    return p.display(agent, round);
  };
}

// FaultyEngine chooses ⌊fraction·(n − first_eligible)⌋ highest-indexed
// agents as Byzantine (fault/faulty_engine.cpp, bind_population).
inline std::uint64_t byzantine_count(const FaultPlan& plan, std::uint64_t n) {
  const std::uint64_t eligible = n - plan.first_eligible;
  return static_cast<std::uint64_t>(plan.byzantine.fraction *
                                    static_cast<double>(eligible));
}

// The synchronized blackout stalls the ⌊blackout_fraction·eligible⌋
// lowest-indexed eligible agents.
inline std::uint64_t blackout_count(const FaultPlan& plan, std::uint64_t n) {
  const std::uint64_t eligible = n - plan.first_eligible;
  return static_cast<std::uint64_t>(plan.stall.blackout_fraction *
                                    static_cast<double>(eligible));
}

inline Symbol byzantine_display(const FaultPlan& plan, std::uint64_t round) {
  switch (plan.byzantine.strategy) {
    case ByzantineStrategy::AlwaysWrong:
      return plan.byzantine.wrong_symbol;
    case ByzantineStrategy::FlipFlop:
      return round % 2 == 0 ? plan.byzantine.wrong_symbol
                            : plan.byzantine.honest_symbol;
    case ByzantineStrategy::MimicSource:
      return plan.byzantine.mimic_symbol;
  }
  return plan.byzantine.wrong_symbol;
}

// The oracle-side DisplayOverride equivalent of a Byzantine strategy.
inline DisplayOverride byzantine_override(const FaultPlan& plan) {
  switch (plan.byzantine.strategy) {
    case ByzantineStrategy::AlwaysWrong:
      return DisplayOverride::constant(plan.byzantine.wrong_symbol);
    case ByzantineStrategy::FlipFlop:
      return DisplayOverride::even_odd(plan.byzantine.wrong_symbol,
                                       plan.byzantine.honest_symbol);
    case ByzantineStrategy::MimicSource:
      return DisplayOverride::constant(plan.byzantine.mimic_symbol);
  }
  return DisplayOverride::none();
}

// View that forges the Byzantine tail exactly as FaultedProtocolView does.
inline DisplayView faulted_view(const FaultPlan& plan, std::uint64_t n) {
  const std::uint64_t byz = byzantine_count(plan, n);
  return [plan, n, byz](const PullProtocol& p, std::uint64_t agent,
                        std::uint64_t round) {
    if (byz > 0 && agent >= n - byz) return byzantine_display(plan, round);
    return p.display(agent, round);
  };
}

// Replays FaultyEngine's burst schedule (a deterministic function of the
// plan seed — Rng(seed ^ kBurstSalt, round), fault/faulty_engine.cpp) and
// returns the per-round channel overrides the oracle must apply.  The salt
// is part of the fault layer's determinism contract and is duplicated here
// on purpose: golden digests pin it, and the oracle must not link against
// the implementation it audits.
inline std::map<std::uint64_t, Matrix> burst_overrides(const FaultPlan& plan,
                                                       std::size_t alphabet,
                                                       std::uint64_t rounds) {
  constexpr std::uint64_t kBurstSalt = 0xbf58476d1ce4e5b9ULL;
  std::map<std::uint64_t, Matrix> out;
  if (plan.burst.rate <= 0.0) return out;
  const Matrix spiked =
      NoiseMatrix::uniform(alphabet, plan.burst.delta).matrix();
  std::uint64_t burst_until = 0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    bool active = round < burst_until;
    if (!active) {
      Rng burst_rng(plan.seed ^ kBurstSalt, round);
      if (burst_rng.bernoulli(plan.burst.rate)) {
        burst_until = round + plan.burst.rounds;
        active = true;
      }
    }
    if (active) out.emplace(round, spiked);
  }
  return out;
}

// Runs `reps` independent replicates of `rounds` engine rounds and returns
// the empirical distribution of the (viewed) display histogram at the start
// of every round 0..rounds.  Each replicate gets a fresh protocol, a fresh
// engine (FaultyEngine carries stall state across rounds, so reuse would
// corrupt the sample), and the substream Rng(seed, rep).
inline std::vector<DisplayDistribution> run_replicates(
    const ProtocolFactory& make_protocol, const EngineFactory& make_engine,
    const NoiseMatrix& noise, Holdings h, std::uint64_t rounds,
    std::uint64_t reps, std::uint64_t seed,
    const DisplayView& view = honest_view()) {
  std::vector<DisplayDistribution> per_round(rounds + 1);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    auto protocol = make_protocol();
    auto engine = make_engine();
    Rng rng(seed, rep);
    const std::uint64_t n = protocol->num_agents();
    const std::size_t d = protocol->alphabet_size();
    for (std::uint64_t round = 0; round <= rounds; ++round) {
      std::vector<std::uint64_t> hist(d, 0);
      for (std::uint64_t agent = 0; agent < n; ++agent) {
        ++hist[view(*protocol, agent, round)];
      }
      per_round[round][hist] += 1.0;
      if (round < rounds) engine->step(*protocol, noise, h, round, rng);
    }
  }
  const double inv = 1.0 / static_cast<double>(reps);
  for (auto& dist : per_round) {
    for (auto& [key, mass] : dist) mass *= inv;
  }
  return per_round;
}

// Steps `chain` through rounds 1..empirical.size()-1 and checks, at every
// round, (a) TV distance within tv_tolerance + truncated mass and (b) each
// symbol's empirical display mean within z·sd of the exact mean.  Returns
// an empty string on success or a human-readable failure description (the
// caller owns turning that into a test failure plus a repro line).
inline std::string compare_to_oracle(
    ExactChain& chain, const std::vector<DisplayDistribution>& empirical,
    std::uint64_t reps, double log_inv_alpha = 30.0) {
  std::ostringstream fail;
  const double m = static_cast<double>(reps);
  // Mean deviations use a gaussian-style z matched to the TV alpha:
  // P(|dev| > z·sd) ≈ exp(-z²/2) = exp(-log_inv_alpha).
  const double z = std::sqrt(2.0 * log_inv_alpha);
  for (std::uint64_t round = 1; round < empirical.size(); ++round) {
    chain.step();
    const auto exact = chain.display_distribution();
    const double tv = total_variation(exact, empirical[round]);
    const double tol = tv_tolerance(exact.size(), reps, log_inv_alpha) +
                       chain.truncated_mass();
    if (tv > tol) {
      fail << "round " << round << ": TV " << tv << " > tolerance " << tol
           << " (support " << exact.size() << ", reps " << reps << ")\n";
    }
    // Exact-mean cross-check: much sharper against mean-shift bugs.
    const auto mean = chain.display_mean();
    std::vector<double> var(mean.size(), 0.0);
    for (const auto& [hist, p] : exact) {
      for (std::size_t s = 0; s < mean.size(); ++s) {
        const double dev = static_cast<double>(hist[s]) - mean[s];
        var[s] += p * dev * dev;
      }
    }
    std::vector<double> emp_mean(mean.size(), 0.0);
    for (const auto& [hist, p] : empirical[round]) {
      for (std::size_t s = 0; s < mean.size(); ++s) {
        emp_mean[s] += p * static_cast<double>(hist[s]);
      }
    }
    const double n_agents = static_cast<double>(chain.num_agents());
    for (std::size_t s = 0; s < mean.size(); ++s) {
      const double slack = z * std::sqrt(var[s] / m) +
                           n_agents * chain.truncated_mass() + 1e-9;
      if (std::abs(emp_mean[s] - mean[s]) > slack) {
        fail << "round " << round << ": symbol " << s << " mean "
             << emp_mean[s] << " vs exact " << mean[s] << " (slack " << slack
             << ")\n";
      }
    }
  }
  return fail.str();
}

// Owns an AggregateEngine + FaultyEngine pair behind the Engine interface so
// EngineFactory can hand out faulted engines with value semantics.
class OwnedFaultyAggregate final : public Engine {
 public:
  explicit OwnedFaultyAggregate(FaultPlan plan) : faulty_(inner_, plan) {}

  void step(PullProtocol& protocol, const NoiseMatrix& noise, Holdings h,
            std::uint64_t round, Rng& rng) override {
    faulty_.step(protocol, noise, h, round, rng);
  }
  void set_artificial_noise(std::optional<Matrix> p) override {
    faulty_.set_artificial_noise(std::move(p));
  }

 private:
  AggregateEngine inner_;
  FaultyEngine faulty_;
};

}  // namespace noisypull::oracle_test
