#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "noisypull/analysis/stats.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/sim/runner.hpp"

namespace noisypull {
namespace {

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

// Fixed displays, records observations per agent (same as in
// test_engines.cpp but local to keep the suites independent).
class Recorder : public PullProtocol {
 public:
  Recorder(std::vector<Symbol> displays)
      : displays_(std::move(displays)),
        last_obs_(displays_.size(), SymbolCounts(2)) {}
  std::size_t alphabet_size() const override { return 2; }
  std::uint64_t num_agents() const override { return displays_.size(); }
  Symbol display(std::uint64_t agent, std::uint64_t) const override {
    return displays_[agent];
  }
  void update(std::uint64_t agent, std::uint64_t, const SymbolCounts& obs,
              Rng&) override {
    last_obs_[agent] = obs;
  }
  Opinion opinion(std::uint64_t) const override { return 0; }

  std::vector<Symbol> displays_;
  std::vector<SymbolCounts> last_obs_;
};

std::vector<NoiseMatrix> mixed_noise(std::uint64_t n, double low,
                                     double high) {
  std::vector<NoiseMatrix> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(NoiseMatrix::uniform(2, i % 2 == 0 ? low : high));
  }
  return out;
}

TEST(HeterogeneousEngine, Validation) {
  EXPECT_THROW(AggregateEngine(std::vector<NoiseMatrix>{}), std::invalid_argument);
  std::vector<NoiseMatrix> mismatched;
  mismatched.push_back(NoiseMatrix::uniform(2, 0.1));
  mismatched.push_back(NoiseMatrix::uniform(3, 0.1));
  EXPECT_THROW(AggregateEngine(std::move(mismatched)),
               std::invalid_argument);

  // Wrong matrix count for the protocol.
  Recorder protocol(std::vector<Symbol>(4, 0));
  AggregateEngine engine(mixed_noise(3, 0.0, 0.1));
  Rng rng(1);
  EXPECT_THROW(engine.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{1},
                           0, rng),
               std::invalid_argument);
}

TEST(HeterogeneousEngine, WorstUpperBound) {
  AggregateEngine engine(mixed_noise(10, 0.05, 0.25));
  EXPECT_NEAR(engine.worst_upper_bound(), 0.25, 1e-12);
}

TEST(HeterogeneousEngine, ChannelGroups) {
  // Shared mode is one group of every agent; per-agent mode has one group
  // per distinct effective channel, and artificial noise regroups them.
  Recorder protocol(std::vector<Symbol>(6, 1));
  Rng rng(6);
  AggregateEngine shared;
  shared.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{4}, 0, rng);
  EXPECT_EQ(shared.distinct_channels(), 1u);
  EXPECT_EQ(shared.worst_upper_bound(), 0.0);

  AggregateEngine mixed(mixed_noise(6, 0.1, 0.2));
  mixed.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{4}, 0, rng);
  EXPECT_EQ(mixed.distinct_channels(), 2u);
  // A fully scrambling P maps both channels to the same uniform channel.
  mixed.set_artificial_noise(Matrix{0.5, 0.5, 0.5, 0.5});
  mixed.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{4}, 1, rng);
  EXPECT_EQ(mixed.distinct_channels(), 1u);
}

TEST(HeterogeneousEngine, PerAgentChannelsAreApplied) {
  // Agent 0 is noiseless, agent 1 has a fully scrambling channel; all
  // displays are 1.
  std::vector<NoiseMatrix> noise;
  noise.push_back(NoiseMatrix::noiseless(2));
  noise.push_back(NoiseMatrix(Matrix{0.5, 0.5, 0.5, 0.5}));
  Recorder protocol(std::vector<Symbol>(2, 1));
  AggregateEngine engine(std::move(noise));
  Rng rng(2);

  std::array<std::uint64_t, 2> scrambled{};
  for (int t = 0; t < 600; ++t) {
    engine.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{10}, t, rng);
    EXPECT_EQ(protocol.last_obs_[0][1], 10u);  // noiseless: all 1s
    scrambled[0] += protocol.last_obs_[1][0];
    scrambled[1] += protocol.last_obs_[1][1];
  }
  const std::array<double, 2> half = {0.5, 0.5};
  EXPECT_LT(chi_square_statistic(scrambled, half),
            chi_square_critical_999(1));
}

TEST(HeterogeneousEngine, UniformSpecialCaseMatchesAggregateLaw) {
  // All agents share one matrix: the observation law must equal the
  // homogeneous one (30% displays of 1 through δ = 0.1 → P(see 1) = 0.34).
  const std::uint64_t n = 10;
  std::vector<Symbol> displays(n, 0);
  displays[0] = displays[1] = displays[2] = 1;
  Recorder protocol(displays);
  AggregateEngine engine(
      std::vector<NoiseMatrix>(n, NoiseMatrix::uniform(2, 0.1)));
  Rng rng(3);
  std::array<std::uint64_t, 2> totals{};
  for (int t = 0; t < 400; ++t) {
    engine.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{50}, t, rng);
    for (const auto& obs : protocol.last_obs_) {
      totals[0] += obs[0];
      totals[1] += obs[1];
    }
  }
  const std::array<double, 2> probs = {0.66, 0.34};
  EXPECT_LT(chi_square_statistic(totals, probs), chi_square_critical_999(1));
}

TEST(HeterogeneousEngine, ArtificialNoiseComposesPerAgent) {
  // Noiseless per-agent channels + scrambling artificial noise → uniform.
  Recorder protocol(std::vector<Symbol>(4, 1));
  AggregateEngine engine(
      std::vector<NoiseMatrix>(4, NoiseMatrix::noiseless(2)));
  engine.set_artificial_noise(Matrix{0.5, 0.5, 0.5, 0.5});
  Rng rng(4);
  std::array<std::uint64_t, 2> totals{};
  for (int t = 0; t < 500; ++t) {
    engine.step(protocol, NoiseMatrix::noiseless(2), Holdings{10}, t, rng);
    for (const auto& obs : protocol.last_obs_) {
      totals[0] += obs[0];
      totals[1] += obs[1];
    }
  }
  const std::array<double, 2> half = {0.5, 0.5};
  EXPECT_LT(chi_square_statistic(totals, half), chi_square_critical_999(1));
}

TEST(HeterogeneousEngine, SfTunedToWorstAgentConverges) {
  // Half the agents observe at δ = 0.02, half at δ = 0.25; SF tuned to the
  // worst level converges (a δ-upper-bounded mixture is δ_max-upper-bounded
  // from every receiver's perspective).
  const auto p = pop(600, 1, 0);
  auto noise = mixed_noise(p.n, 0.02, 0.25);
  AggregateEngine engine(std::move(noise));
  SourceFilter sf(p, Holdings{p.n}, Delta{engine.worst_upper_bound()}, C1{2.0});
  Rng rng(5);
  const auto result =
      run(sf, engine, NoiseMatrix::uniform(2, engine.worst_upper_bound()),
          p.correct_opinion(), RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

// Digest plus final opinions of one SF run: the whole observable trajectory
// of a bit-identity comparison.
struct Trajectory {
  std::uint64_t digest = 0;
  std::vector<Opinion> opinions;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_sf(Engine& engine, const PopulationConfig& p, std::uint64_t h,
                  double delta, std::uint64_t seed) {
  SourceFilter sf(p, Holdings{h}, Delta{delta}, C1{2.0});
  Rng rng(seed);
  run(sf, engine, NoiseMatrix::uniform(2, delta), p.correct_opinion(),
      RunConfig{.h = h}, rng);
  Trajectory out{.digest = engine.replay_digest(), .opinions = {}};
  for (std::uint64_t i = 0; i < p.n; ++i) out.opinions.push_back(sf.opinion(i));
  return out;
}

TEST(HeterogeneousEngine, OneSharedMatrixIsBitIdenticalToAggregate) {
  // n per-agent copies of one matrix form a single channel group: the same
  // q, the same per-round sampler and the same per-agent draws as the shared
  // mode, so the trajectories must agree bit for bit — bare and under a
  // drop/crash FaultPlan, at every lane count.  h = 16 puts the shared sampler in
  // inverse-CDF mode; h = n = 300 (301 outcomes over 300 draws) in the
  // decomposition fallback.
  const auto p = pop(300, 2, 1);
  const double delta = 0.1;
  FaultPlan faults = FaultPlan::for_binary(p.correct_opinion());
  faults.seed = 7;
  faults.first_eligible = p.num_sources();
  faults.drop.p = 0.05;
  faults.stall.crash_rate = 0.01;

  for (const std::uint64_t h : {std::uint64_t{16}, p.n}) {
    for (const unsigned lanes : {1u, 4u}) {
      for (const bool faulted : {false, true}) {
        const auto trajectory = [&](Engine& inner) {
          inner.set_threads(lanes);
          if (!faulted) return run_sf(inner, p, h, delta, 11);
          FaultyEngine engine(inner, faults);
          return run_sf(engine, p, h, delta, 11);
        };
        AggregateEngine aggregate;
        AggregateEngine heterogeneous(
            std::vector<NoiseMatrix>(p.n, NoiseMatrix::uniform(2, delta)));
        EXPECT_EQ(trajectory(heterogeneous), trajectory(aggregate))
            << "h=" << h << " lanes=" << lanes << " faulted=" << faulted;
      }
    }
  }
}

}  // namespace
}  // namespace noisypull
