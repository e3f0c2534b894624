// Bulk protocol calls are the per-agent loops they replace.
//
// The engines drive a protocol through PullProtocol::display_all(),
// update_block() and count_opinion() (core/protocol.hpp).  A protocol that
// overrides them (SourceFilter and its variants) must realize exactly the
// per-agent defaults: the same displays, the same updates, the same RNG
// draws.  Each test runs AggregateEngine on a bare protocol and on a
// pass-through wrapper that forwards only the per-agent methods — so the
// engine takes the defaults on it — and requires the same replay digest,
// first_all_correct and per-round count_correct, on
//   * n = 9000 agents: three 4096-agent blocks, the last one partial;
//   * 1 and 4 lanes;
//   * the shared channel and per-agent channels (two channel groups);
//   * no faults and a drop + crash FaultPlan (FaultedProtocolView keeps the
//     per-agent defaults, so faulted runs must match too).
// At every round it also checks display_all() and count_opinion() of the
// bare protocol against the per-agent loops over display() and opinion().
// For the SourceFilter family it compares the listening counters too: with
// full samples (obs.total() == h) the weak opinion depends only on the total
// of observed 1s, so an update_block() that counted AlternatingSourceFilter's
// listening rounds the plain-SF way would leave every display, and so the
// digest, unchanged — only the counters show it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noisypull/baselines/majority_dynamics.hpp"
#include "noisypull/baselines/repeated_majority.hpp"
#include "noisypull/baselines/voter.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/kary.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/core/ssf.hpp"
#include "noisypull/core/variants.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/sim/runner.hpp"

namespace noisypull {
namespace {

constexpr std::uint64_t kN = 9000;
constexpr std::uint64_t kH = 8;
constexpr double kDelta = 0.1;
// Rounds per leg: the short SF schedule's 15 rounds plus three past its
// horizon, so every SF round class (listening, last listening round,
// boosting, sub-phase end, terminated) is stepped.
constexpr std::uint64_t kRounds = 18;
constexpr std::uint64_t kRunSeed = 20240611;
constexpr std::uint64_t kInitSeed = 77;

// Forwards the per-agent methods only, so the engine runs PullProtocol's
// bulk defaults over the wrapped protocol's per-agent calls.
class PerAgentOnly final : public PullProtocol {
 public:
  explicit PerAgentOnly(PullProtocol& base) : base_(base) {}

  std::size_t alphabet_size() const override { return base_.alphabet_size(); }
  std::uint64_t num_agents() const override { return base_.num_agents(); }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override {
    return base_.display(agent, round);
  }
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override {
    base_.update(agent, round, obs, rng);
  }
  Opinion opinion(std::uint64_t agent) const override {
    return base_.opinion(agent);
  }
  std::uint64_t planned_rounds() const override {
    return base_.planned_rounds();
  }

 private:
  PullProtocol& base_;
};

PopulationConfig population() {
  return PopulationConfig{.n = kN, .s1 = 600, .s0 = 300};
}

// 15 rounds: 2 + 2 listening, three 3-round sub-phases, a 2-round final one.
SfSchedule short_schedule() {
  return SfSchedule{.h = kH,
                    .m = 2 * kH,
                    .phase_rounds = 2,
                    .w = 3 * kH,
                    .subphase_rounds = 3,
                    .num_subphases = 3,
                    .final_rounds = 2};
}

// Two-state table automaton: show your state, move toward the majority of
// the watched symbols, break ties by a coin.
const TableAutomaton& table_automaton() {
  static const TableAutomaton table(
      2, {TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                     .if_less = 1, .tie_a = 0, .tie_b = 1},
          TableState{.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                     .if_less = 1, .tie_a = 1, .tie_b = 0}});
  return table;
}

struct Case {
  std::function<std::unique_ptr<PullProtocol>()> make;
  Opinion correct = 1;
};

struct Leg {
  unsigned lanes = 1;
  bool per_agent_channels = false;
  bool faulted = false;

  std::string name() const {
    return "lanes=" + std::to_string(lanes) +
           (per_agent_channels ? " per-agent channels" : " shared channel") +
           (faulted ? " drop+crash" : " fault-free");
  }
};

struct Trace {
  std::uint64_t digest = 0;
  std::uint64_t first_all_correct = kNever;
  std::vector<std::uint64_t> counts;  // count_correct after each round
};

std::unique_ptr<AggregateEngine> make_engine(const Leg& leg, std::size_t d) {
  if (!leg.per_agent_channels) return std::make_unique<AggregateEngine>();
  std::vector<NoiseMatrix> per_agent;
  per_agent.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    per_agent.push_back(NoiseMatrix::uniform(d, i % 3 == 0 ? 0.05 : kDelta));
  }
  return std::make_unique<AggregateEngine>(std::move(per_agent));
}

FaultPlan drop_and_crash() {
  FaultPlan plan;
  plan.seed = 5;
  plan.drop.p = 0.1;
  plan.stall.crash_rate = 0.02;
  return plan;
}

Trace run_leg(PullProtocol& protocol, const Leg& leg, Opinion correct) {
  const std::size_t d = protocol.alphabet_size();
  const std::unique_ptr<AggregateEngine> inner = make_engine(leg, d);
  inner->set_threads(leg.lanes);
  FaultyEngine faulty(*inner, drop_and_crash());
  Engine& engine = leg.faulted ? static_cast<Engine&>(faulty) : *inner;
  const NoiseMatrix noise = NoiseMatrix::uniform(d, kDelta);
  Rng rng(kRunSeed);

  Trace trace;
  std::vector<Symbol> bulk(kN);
  std::vector<Symbol> loop(kN);
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    protocol.display_all(t, bulk.data());
    for (std::uint64_t i = 0; i < kN; ++i) loop[i] = protocol.display(i, t);
    EXPECT_TRUE(bulk == loop) << "display_all differs at round " << t;

    engine.step(protocol, noise, Holdings{kH}, t, rng);

    const std::uint64_t good = count_correct(protocol, correct);
    std::uint64_t per_agent = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
      per_agent += protocol.opinion(i) == correct ? 1 : 0;
    }
    EXPECT_EQ(good, per_agent) << "count_opinion differs at round " << t;
    trace.counts.push_back(good);
    if (good != kN) {
      trace.first_all_correct = kNever;
    } else if (trace.first_all_correct == kNever) {
      trace.first_all_correct = t;
    }
  }
  trace.digest = engine.replay_digest();
  return trace;
}

// Every agent's listening counters (counter1, counter0) for the SourceFilter
// family; empty for other protocols.
std::vector<std::uint64_t> sf_counters(const PullProtocol& protocol) {
  std::vector<std::uint64_t> counters;
  if (const auto* sf = dynamic_cast<const SourceFilter*>(&protocol)) {
    for (std::uint64_t i = 0; i < kN; ++i) {
      counters.push_back(sf->counter1(i));
      counters.push_back(sf->counter0(i));
    }
  }
  return counters;
}

void expect_bulk_matches_per_agent(const Case& c) {
  for (const unsigned lanes : {1U, 4U}) {
    for (const bool per_agent_channels : {false, true}) {
      for (const bool faulted : {false, true}) {
        const Leg leg{.lanes = lanes,
                      .per_agent_channels = per_agent_channels,
                      .faulted = faulted};
        SCOPED_TRACE(leg.name());
        const std::unique_ptr<PullProtocol> bare = c.make();
        const std::unique_ptr<PullProtocol> base = c.make();
        PerAgentOnly wrapped(*base);
        const Trace bulk = run_leg(*bare, leg, c.correct);
        const Trace per_agent = run_leg(wrapped, leg, c.correct);
        EXPECT_EQ(bulk.digest, per_agent.digest);
        EXPECT_EQ(bulk.first_all_correct, per_agent.first_all_correct);
        EXPECT_EQ(bulk.counts, per_agent.counts);
        EXPECT_TRUE(sf_counters(*bare) == sf_counters(*base))
            << "listening counters differ";
      }
    }
  }
}

TEST(ProtocolBulk, SourceFilter) {
  expect_bulk_matches_per_agent(
      {[] {
         return std::make_unique<SourceFilter>(population(), short_schedule());
       },
       population().correct_opinion()});
}

TEST(ProtocolBulk, EagerSourceFilter) {
  expect_bulk_matches_per_agent({[] {
                                   Rng init(kInitSeed);
                                   return std::make_unique<EagerSourceFilter>(
                                       population(), short_schedule(), init);
                                 },
                                 population().correct_opinion()});
}

// AlternatingSourceFilter overrides update(); its listening rounds must
// reach that override through update_block().
TEST(ProtocolBulk, AlternatingSourceFilter) {
  expect_bulk_matches_per_agent(
      {[] {
         Rng init(kInitSeed);
         return std::make_unique<AlternatingSourceFilter>(
             population(), short_schedule(), init);
       },
       population().correct_opinion()});
}

TEST(ProtocolBulk, SelfStabilizingSourceFilter) {
  expect_bulk_matches_per_agent(
      {[] {
         return std::make_unique<SelfStabilizingSourceFilter>(
             SelfStabilizingSourceFilter::with_memory_budget(
                 population(), Holdings{kH}, MemoryBudget{24}));
       },
       population().correct_opinion()});
}

TEST(ProtocolBulk, KarySourceFilter) {
  const KaryPopulation pop{.n = kN, .sources = {300, 500, 200}};
  expect_bulk_matches_per_agent(
      {[pop] {
         return std::make_unique<KarySourceFilter>(pop, Holdings{kH},
                                                   Delta{kDelta});
       },
       pop.plurality_opinion()});
}

TEST(ProtocolBulk, TaglessSsf) {
  expect_bulk_matches_per_agent(
      {[] {
         return std::make_unique<TaglessSsf>(population(), Holdings{kH},
                                             MemoryBudget{24});
       },
       population().correct_opinion()});
}

TEST(ProtocolBulk, VoterProtocol) {
  expect_bulk_matches_per_agent({[] {
                                   Rng init(kInitSeed);
                                   return std::make_unique<VoterProtocol>(
                                       population(), init);
                                 },
                                 population().correct_opinion()});
}

TEST(ProtocolBulk, MajorityDynamics) {
  expect_bulk_matches_per_agent({[] {
                                   Rng init(kInitSeed);
                                   return std::make_unique<MajorityDynamics>(
                                       population(), init);
                                 },
                                 population().correct_opinion()});
}

TEST(ProtocolBulk, RepeatedMajority) {
  expect_bulk_matches_per_agent({[] {
                                   Rng init(kInitSeed);
                                   return std::make_unique<RepeatedMajority>(
                                       population(), 3, init);
                                 },
                                 population().correct_opinion()});
}

TEST(ProtocolBulk, AutomatonProtocol) {
  expect_bulk_matches_per_agent(
      {[] {
         return std::make_unique<AutomatonProtocol>(std::vector<AutomatonGroup>{
             {.count = kN / 2, .automaton = &table_automaton(), .initial = 0},
             {.count = kN - kN / 2,
              .automaton = &table_automaton(),
              .initial = 1}});
       },
       1});
}

}  // namespace
}  // namespace noisypull
