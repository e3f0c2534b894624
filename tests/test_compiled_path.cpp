// Bit-identity contract of the compiled automaton fast path (DESIGN.md §13).
//
// The compiled path replaces the virtual display/update dispatch with a flat
// SoA state vector, per-signature display memo tables and a memoized
// (state id, outcome index) → edge transition table.  None of that may ever
// change a trajectory: for every protocol family (Table / SF / SSF), engine
// (Aggregate / Heterogeneous, bare or wrapped in FaultyEngine), lane count,
// sampler-cache toggle and fault plan, the replay digest AND the final
// per-agent opinions must be identical to the interpreted run, which in turn
// matches the mirrored production protocol draw for draw.  These tests pin:
//   * ObservationSampler::sample_index consumes the rng exactly like
//     sample() and returns that outcome's enumeration index (cached and
//     uncached, binary and k-ary);
//   * compiled == interpreted on the same CompiledPopulation, across lanes
//     {1, 4}, cache {on, off}, engines {Aggregate, Heterogeneous};
//   * CompiledPopulation == the production protocol it mirrors
//     (AutomatonProtocol / SourceFilter / SelfStabilizingSourceFilter);
//   * the same under FaultyEngine with zero and nonzero FaultPlans — the
//     forged/stalled/drop fallbacks route exactly the faulted agents through
//     the virtual path and nobody else's draws move;
//   * heterogeneous channel groups too small to amortize the inverse-CDF
//     table fall back per agent without disturbing the fast-path agents.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "noisypull/common/fnv.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/core/ssf.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/rng/observation_cache.hpp"

namespace noisypull {
namespace {

constexpr std::uint64_t kN = 48;
constexpr double kDelta = 0.2;
// s1 = 2, s0 = 1: all three factory groups (sources preferring 1, sources
// preferring 0, non-sources) are non-empty and the schedule bias stays >= 1.
constexpr PopulationConfig kPop{.n = kN, .s1 = 2, .s0 = 1};

enum class Proto { Table, Sf, Ssf };

std::string proto_name(Proto p) {
  switch (p) {
    case Proto::Table: return "Table";
    case Proto::Sf: return "Sf";
    case Proto::Ssf: return "Ssf";
  }
  return "?";
}

// Per-family run geometry.  SSF uses h = 4 so the d = 4 outcome space
// (C(7,3) = 35) passes the aggregate sampler's amortization gate at n = 48;
// its memory budget m = 16 flushes every ceil(16/4) = 4 rounds.
struct ProtoParams {
  std::size_t d;
  std::uint64_t h;
  std::uint64_t rounds;
};

ProtoParams params_of(Proto p) {
  switch (p) {
    case Proto::Table: return {.d = 2, .h = 16, .rounds = 32};
    case Proto::Sf: {
      const SfSchedule s = make_sf_schedule(kPop, Holdings{16}, Delta{kDelta});
      return {.d = 2, .h = 16, .rounds = s.total_rounds() + 4};
    }
    case Proto::Ssf: return {.d = 4, .h = 4, .rounds = 24};
  }
  return {};
}

// A two-state binary table automaton with a genuinely random tie edge, so
// the compiled InverseCdf rows exercise the coin mass and not just
// deterministic targets.
std::shared_ptr<const TableAutomaton> shared_table_automaton() {
  static const auto kAutomaton = std::make_shared<const TableAutomaton>(
      2, std::vector<TableState>{
             {.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
              .if_less = 1, .tie_a = 0, .tie_b = 1},
             {.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 0,
              .if_less = 1, .tie_a = 1, .tie_b = 0},
         });
  return kAutomaton;
}

// d = 3 variant: exercises the NEXCOM composition enumeration end to end
// (outcome indices, table rows, sample_index decode) instead of the binary
// h+1 ladder.
std::shared_ptr<const TableAutomaton> shared_kary_automaton() {
  static const auto kAutomaton = std::make_shared<const TableAutomaton>(
      3, std::vector<TableState>{
             {.show = 0, .watch_a = 0, .watch_b = 2, .if_greater = 0,
              .if_less = 1, .tie_a = 0, .tie_b = 2},
             {.show = 1, .watch_a = 1, .watch_b = 2, .if_greater = 1,
              .if_less = 2, .tie_a = 1, .tie_b = 0},
             {.show = 2, .watch_a = 0, .watch_b = 1, .if_greater = 2,
              .if_less = 0, .tie_a = 2, .tie_b = 1},
         });
  return kAutomaton;
}

std::unique_ptr<CompiledPopulation> make_compiled(Proto p) {
  std::unique_ptr<CompiledPopulation> pop;
  switch (p) {
    case Proto::Table:
      pop = std::make_unique<CompiledPopulation>(
          std::vector<CompiledGroup>{
              {.count = 8, .automaton = shared_table_automaton(), .initial = 1},
              {.count = kN - 8, .automaton = shared_table_automaton(),
               .initial = 0}},
          /*planned_rounds=*/0);
      break;
    case Proto::Sf:
      pop = make_compiled_sf(kPop,
                             make_sf_schedule(kPop, Holdings{16}, Delta{kDelta}));
      break;
    case Proto::Ssf:
      pop = make_compiled_ssf(kPop, MemoryBudget{16});
      break;
  }
  // At n = 48 the default build gate would route most rounds through the
  // virtual path (row compilation rarely amortizes over so few agents);
  // force the fast path so the matrix genuinely exercises it.  The gate's
  // own identity is pinned separately in DefaultBuildGateKeepsIdentity.
  if (pop) pop->set_table_build_limit(1e18);
  return pop;
}

// The production protocol each compiled population mirrors.  The holder
// keeps non-owned automata alive for AutomatonProtocol.
struct Production {
  std::unique_ptr<PullProtocol> protocol;
  std::shared_ptr<const AgentAutomaton> keepalive;
};

Production make_production(Proto p) {
  switch (p) {
    case Proto::Table: {
      auto automaton = shared_table_automaton();
      auto protocol = std::make_unique<AutomatonProtocol>(
          std::vector<AutomatonGroup>{
              {.count = 8, .automaton = automaton.get(), .initial = 1},
              {.count = kN - 8, .automaton = automaton.get(), .initial = 0}});
      return {std::move(protocol), std::move(automaton)};
    }
    case Proto::Sf:
      return {std::make_unique<SourceFilter>(
                  kPop, make_sf_schedule(kPop, Holdings{16}, Delta{kDelta})),
              nullptr};
    case Proto::Ssf:
      return {std::make_unique<SelfStabilizingSourceFilter>(
                  SelfStabilizingSourceFilter::with_memory_budget(
                      kPop, Holdings{4}, MemoryBudget{16})),
              nullptr};
  }
  return {};
}

enum class Eng { Aggregate, Heterogeneous };

std::string eng_name(Eng e) {
  return e == Eng::Aggregate ? "Aggregate" : "Heterogeneous";
}

// Two channel tiers (24 + 24 agents) so HeterogeneousEngine builds two
// sampler groups, both within the inverse-CDF amortization gate for the
// binary families.
std::unique_ptr<Engine> make_engine(Eng e, std::size_t d) {
  if (e == Eng::Aggregate) return std::make_unique<AggregateEngine>();
  std::vector<NoiseMatrix> per_agent;
  per_agent.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    per_agent.push_back(NoiseMatrix::uniform(d, i < kN / 2 ? 0.1 : kDelta));
  }
  return std::make_unique<HeterogeneousEngine>(std::move(per_agent));
}

struct RunOut {
  std::uint64_t digest = 0;
  std::vector<Opinion> opinions;

  bool operator==(const RunOut&) const = default;
};

RunOut run(PullProtocol& protocol, Engine& engine, const ProtoParams& pp,
           std::uint64_t seed) {
  const auto noise = NoiseMatrix::uniform(pp.d, kDelta);
  Rng rng(seed);
  for (std::uint64_t r = 0; r < pp.rounds; ++r) {
    engine.step(protocol, noise, Holdings{pp.h}, r, rng);
  }
  RunOut out;
  out.digest = engine.replay_digest();
  out.opinions.resize(protocol.num_agents());
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    out.opinions[i] = protocol.opinion(i);
  }
  return out;
}

FaultPlan nonzero_plan(Proto p, bool with_drop) {
  FaultPlan plan = p == Proto::Ssf ? FaultPlan::for_ssf(/*correct=*/1)
                                   : FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 99;
  plan.first_eligible = kPop.s0 + kPop.s1;  // sources stay honest
  plan.byzantine.fraction = 0.25;
  if (with_drop) plan.drop.p = 0.2;
  plan.stall.crash_rate = 0.05;
  plan.burst.rate = 0.1;
  plan.burst.rounds = 2;
  // Uniform burst level, capped at 1/|alphabet| by FaultPlan::validate.
  plan.burst.delta = p == Proto::Ssf ? 0.2 : 0.5;
  return plan;
}

// ---------------------------------------------------------------------------
// sample_index: same draws, same outcome, by index.

TEST(CompiledSampler, SampleIndexMatchesSampleDrawForDraw) {
  // Inputs on both sides of the cached search's crossover
  // (ObservationSampler::kLinearScanOutcomes) and at kMaxOutcomes, with
  // runs of equal partial sums (zero-weight symbols) and a near-degenerate
  // law.
  struct Input {
    std::uint64_t h;
    std::vector<double> weights;
  };
  const std::vector<Input> inputs = {
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
      {12, {0.5, 0.0, 0.5}},
      {9, {0.35, 0.0, 0.4, 0.25}},
      {3, {0.2, 0.1, 0.0, 0.2, 0.1, 0.15, 0.05, 0.2}},
      {64, {1.0 - 1e-12, 1e-12}},
      {64, {1e-12, 1.0 - 1e-12}},
  };
  for (const Input& in : inputs) {
    const std::size_t d = in.weights.size();
    for (bool cache : {true, false}) {
      ObservationSampler sampler;
      sampler.reset(in.h, in.weights, cache);
      ASSERT_EQ(sampler.mode(), ObservationSampler::Mode::InverseCdf);

      // Canonical enumeration, index → counts.
      std::vector<std::vector<std::uint64_t>> outcomes(sampler.num_outcomes());
      sampler.for_each_outcome(
          [&](std::uint64_t index, const SymbolCounts& obs) {
            ASSERT_LT(index, outcomes.size());
            for (std::size_t s = 0; s < d; ++s) {
              outcomes[index].push_back(obs[static_cast<Symbol>(s)]);
            }
          });

      Rng by_index(17);
      Rng by_counts(17);
      SymbolCounts obs(d);
      for (int draw = 0; draw < 256; ++draw) {
        const std::uint64_t index = sampler.sample_index(by_index);
        sampler.sample(by_counts, obs);
        ASSERT_LT(index, outcomes.size());
        for (std::size_t s = 0; s < d; ++s) {
          ASSERT_EQ(outcomes[index][s], obs[static_cast<Symbol>(s)])
              << "h=" << in.h << " d=" << d << " cache=" << cache
              << " draw=" << draw;
        }
      }
      // Identical rng consumption: the streams stay in lockstep.
      EXPECT_EQ(by_index.next(), by_counts.next());
    }
  }
}

// ---------------------------------------------------------------------------
// The (protocol family × engine) bit-identity matrix.

struct Case {
  Proto proto;
  Eng eng;
};

class CompiledPath : public ::testing::TestWithParam<Case> {};

TEST_P(CompiledPath, CompiledMatchesInterpretedAcrossLanesAndCache) {
  const auto [proto, eng] = GetParam();
  const ProtoParams pp = params_of(proto);

  const auto ref_protocol = make_compiled(proto);
  const auto ref_engine = make_engine(eng, pp.d);
  const RunOut reference = run(*ref_protocol, *ref_engine, pp, 7);
  ASSERT_NE(reference.digest, fnv::kOffsetBasis) << "digest absorbed nothing";

  for (unsigned lanes : {1u, 4u}) {
    for (bool cache : {true, false}) {
      const auto protocol = make_compiled(proto);
      const auto engine = make_engine(eng, pp.d);
      engine->set_compiled(true);
      engine->set_threads(lanes);
      engine->set_sampler_cache(cache);
      EXPECT_EQ(run(*protocol, *engine, pp, 7), reference)
          << lanes << " lanes, cache=" << cache;
    }
  }
}

TEST_P(CompiledPath, CompiledMatchesTheProductionProtocol) {
  const auto [proto, eng] = GetParam();
  const ProtoParams pp = params_of(proto);

  const Production production = make_production(proto);
  const auto prod_engine = make_engine(eng, pp.d);
  const RunOut reference = run(*production.protocol, *prod_engine, pp, 7);

  const auto compiled = make_compiled(proto);
  const auto engine = make_engine(eng, pp.d);
  engine->set_compiled(true);
  engine->set_threads(4);
  EXPECT_EQ(run(*compiled, *engine, pp, 7), reference);
}

TEST_P(CompiledPath, FaultPlanMatrixPreservesBitIdentity) {
  const auto [proto, eng] = GetParam();
  const ProtoParams pp = params_of(proto);

  // Zero plan: FaultyEngine is a transparent pass-through and the fast path
  // must stay engaged through it.  Nonzero plans route forged / stalled /
  // dropped agents through the per-agent virtual fallback; the drop-free
  // variant keeps the fast path live for the honest majority.
  struct PlanCase {
    const char* name;
    FaultPlan plan;
  };
  const PlanCase plans[] = {
      {"zero", FaultPlan{}},
      {"byz+stall", nonzero_plan(proto, /*with_drop=*/false)},
      {"byz+stall+drop", nonzero_plan(proto, /*with_drop=*/true)},
  };

  for (const PlanCase& pc : plans) {
    const auto ref_protocol = make_compiled(proto);
    const auto ref_inner = make_engine(eng, pp.d);
    FaultyEngine ref_engine(*ref_inner, pc.plan);
    const RunOut reference = run(*ref_protocol, ref_engine, pp, 7);

    for (unsigned lanes : {1u, 4u}) {
      const auto protocol = make_compiled(proto);
      const auto inner = make_engine(eng, pp.d);
      FaultyEngine faulty(*inner, pc.plan);
      faulty.set_compiled(true);
      faulty.set_threads(lanes);
      EXPECT_EQ(run(*protocol, faulty, pp, 7), reference)
          << pc.name << ", " << lanes << " lanes";
    }

    // And production-protocol equivalence under the same faults.
    const Production production = make_production(proto);
    const auto prod_inner = make_engine(eng, pp.d);
    FaultyEngine prod_engine(*prod_inner, pc.plan);
    EXPECT_EQ(run(*production.protocol, prod_engine, pp, 7), reference)
        << pc.name << " (production)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CompiledPath,
    ::testing::Values(Case{Proto::Table, Eng::Aggregate},
                      Case{Proto::Table, Eng::Heterogeneous},
                      Case{Proto::Sf, Eng::Aggregate},
                      Case{Proto::Sf, Eng::Heterogeneous},
                      Case{Proto::Ssf, Eng::Aggregate},
                      Case{Proto::Ssf, Eng::Heterogeneous}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return proto_name(param_info.param.proto) +
             eng_name(param_info.param.eng);
    });

// ---------------------------------------------------------------------------
// Channel groups below the amortization gate fall back per agent.

TEST(CompiledPathEdge, UndersizedHeterogeneousGroupFallsBackPerAgent) {
  // 44 + 4 split at h = 16, d = 2: the big tier's 17-outcome space passes
  // the gate (17 <= 44), the small tier's does not (17 > 4), so its four
  // agents run the virtual fallback while the rest stay compiled.
  const ProtoParams pp = params_of(Proto::Sf);
  const auto make_split_engine = [&] {
    std::vector<NoiseMatrix> per_agent;
    for (std::uint64_t i = 0; i < kN; ++i) {
      per_agent.push_back(
          NoiseMatrix::uniform(pp.d, i < kN - 4 ? kDelta : 0.1));
    }
    return std::make_unique<HeterogeneousEngine>(std::move(per_agent));
  };

  const auto ref_protocol = make_compiled(Proto::Sf);
  const auto ref_engine = make_split_engine();
  const RunOut reference = run(*ref_protocol, *ref_engine, pp, 11);

  const auto protocol = make_compiled(Proto::Sf);
  const auto engine = make_split_engine();
  engine->set_compiled(true);
  engine->set_threads(4);
  EXPECT_EQ(run(*protocol, *engine, pp, 11), reference);
}

// ---------------------------------------------------------------------------
// The default build gate (table_build_limit = 1.0) declines rounds whose row
// compilation would not amortize; declined rounds run the virtual path and
// the trajectory must not move.

TEST(CompiledPathEdge, DefaultBuildGateKeepsIdentity) {
  for (Proto proto : {Proto::Sf, Proto::Ssf}) {
    const ProtoParams pp = params_of(proto);
    const auto ref_protocol = make_compiled(proto);  // forced fast path
    AggregateEngine ref_engine;
    ref_engine.set_compiled(true);
    const RunOut reference = run(*ref_protocol, ref_engine, pp, 41);

    const auto gated = make_compiled(proto);
    gated->set_table_build_limit(1.0);  // back to the production default
    AggregateEngine engine;
    engine.set_compiled(true);
    EXPECT_EQ(run(*gated, engine, pp, 41), reference) << proto_name(proto);
  }
}

// ---------------------------------------------------------------------------
// k-ary alphabet: the composition enumeration end to end.

TEST(CompiledPathEdge, KaryTableCompiledMatchesInterpretedAndProduction) {
  const ProtoParams pp{.d = 3, .h = 4, .rounds = 32};
  const auto automaton = shared_kary_automaton();
  const auto make_pop = [&] {
    auto pop = std::make_unique<CompiledPopulation>(
        std::vector<CompiledGroup>{
            {.count = 6, .automaton = automaton, .initial = 1},
            {.count = 6, .automaton = automaton, .initial = 2},
            {.count = kN - 12, .automaton = automaton, .initial = 0}},
        /*planned_rounds=*/0);
    pop->set_table_build_limit(1e18);
    return pop;
  };

  const auto ref_protocol = make_pop();
  AggregateEngine ref_engine;
  const RunOut reference = run(*ref_protocol, ref_engine, pp, 23);

  const auto compiled = make_pop();
  AggregateEngine engine;
  engine.set_compiled(true);
  engine.set_threads(4);
  EXPECT_EQ(run(*compiled, engine, pp, 23), reference);

  AutomatonProtocol production(std::vector<AutomatonGroup>{
      {.count = 6, .automaton = automaton.get(), .initial = 1},
      {.count = 6, .automaton = automaton.get(), .initial = 2},
      {.count = kN - 12, .automaton = automaton.get(), .initial = 0}});
  AggregateEngine prod_engine;
  EXPECT_EQ(run(production, prod_engine, pp, 23), reference);
}

// ---------------------------------------------------------------------------
// Interned-state accessors stay consistent with reported opinions.

TEST(CompiledPathEdge, StateAccessorAgreesWithOpinion) {
  const ProtoParams pp = params_of(Proto::Ssf);
  const auto automaton = std::make_shared<const SsfAutomaton>(
      MemoryBudget{16}, /*is_source=*/false, /*preference=*/0);
  CompiledPopulation protocol(
      std::vector<CompiledGroup>{{.count = kN, .automaton = automaton,
                                  .initial = 0}},
      /*planned_rounds=*/0);
  protocol.set_table_build_limit(1e18);
  AggregateEngine engine;
  engine.set_compiled(true);
  run(protocol, engine, pp, 31);
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    // opinion() is a pure function of the interned SoA state.
    EXPECT_EQ(protocol.opinion(i), automaton->opinion(protocol.state(i))) << i;
  }
}

}  // namespace
}  // namespace noisypull
