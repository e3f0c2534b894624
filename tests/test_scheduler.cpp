#include "noisypull/analysis/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "noisypull/analysis/table.hpp"
#include "noisypull/core/source_filter.hpp"

namespace noisypull {
namespace {

namespace fs = std::filesystem;

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

ProtocolFactory sf_factory(const PopulationConfig& p, double delta) {
  return [p, delta](Rng&) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<SourceFilter>(p, Holdings{p.n}, Delta{delta},
                                          C1{2.0});
  };
}

std::uint64_t sf_digest(const PopulationConfig& p, double delta) {
  return CellKey()
      .str("SourceFilter")
      .u64(p.n)
      .u64(p.s1)
      .u64(p.s0)
      .u64(p.n)
      .f64(delta)
      .f64(2.0)
      .digest();
}

ExperimentCell sf_cell(const PopulationConfig& p, double delta,
                       std::uint64_t seed) {
  return ExperimentCell{.label = "sf n=" + std::to_string(p.n),
                        .make_protocol = sf_factory(p, delta),
                        .noise = NoiseMatrix::uniform(2, delta),
                        .correct = p.correct_opinion(),
                        .cfg = RunConfig{.h = p.n},
                        .seed = seed,
                        .protocol_digest = sf_digest(p, delta)};
}

// A truncated cell: the run stops right after weak opinions form, so
// correct_at_end (and success) is genuinely random across repetitions —
// the interesting regime for early stopping and cache tests.
ExperimentCell truncated_cell(const PopulationConfig& p, double delta,
                              std::uint64_t seed) {
  const SourceFilter ref(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  ExperimentCell cell = sf_cell(p, delta, seed);
  cell.cfg.max_rounds = ref.schedule().boosting_start();
  return cell;
}

// Field-by-field bit equality: the scheduler's determinism contract is
// "identical statistics", not "statistically close".
void expect_same(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.stable_successes, b.stable_successes);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.stable_success_rate, b.stable_success_rate);
  EXPECT_EQ(a.wilson.lower, b.wilson.lower);
  EXPECT_EQ(a.wilson.upper, b.wilson.upper);
  EXPECT_EQ(a.ci_halfwidth, b.ci_halfwidth);
  EXPECT_EQ(a.mean_convergence_round, b.mean_convergence_round);
  EXPECT_EQ(a.convergence_stddev, b.convergence_stddev);
  EXPECT_EQ(a.mean_rounds_run, b.mean_rounds_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  EXPECT_EQ(a.cache_key, b.cache_key);
}

// The repetition derivation the scheduler promises (header comment), by
// hand: repetition r builds its protocol from Rng(seed, 2r) and runs it on
// Rng(seed, 2r+1) under a fresh AggregateEngine.
std::vector<RepOutcome> hand_outcomes(const ExperimentCell& cell,
                                      std::uint64_t reps) {
  std::vector<RepOutcome> outcomes;
  for (std::uint64_t r = 0; r < reps; ++r) {
    Rng init_rng(cell.seed, 2 * r);
    Rng run_rng(cell.seed, 2 * r + 1);
    const auto protocol = cell.make_protocol(init_rng);
    AggregateEngine engine;
    outcomes.push_back(to_outcome(run(*protocol, engine, cell.noise,
                                      cell.correct, cell.cfg, run_rng)));
  }
  return outcomes;
}

// An experiment with every repetition's outcome, read back from the cells'
// cache files: CellStats only aggregates, the cache keeps the repetitions
// one by one.  `tag` names a scratch cache directory of its own.
struct CellRun {
  CellStats stats;
  std::vector<RepOutcome> outcomes;
};

std::vector<CellRun> run_cells(const std::vector<ExperimentCell>& cells,
                               SchedulerOptions opts, const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("noisypull_sched_" + tag);
  fs::remove_all(dir);
  opts.cache_dir = dir.string();
  const auto stats = run_experiment(cells, opts);
  std::vector<std::string> payloads;
  for (const auto& file : fs::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    payloads.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
  }
  fs::remove_all(dir);
  std::vector<CellRun> runs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellRun run_c{.stats = stats[c], .outcomes = {}};
    for (const std::string& payload : payloads) {
      CacheEntry entry = parse_cache_entry(payload, cell_cache_key(cells[c]));
      if (entry.status == CacheEntryStatus::kHit) {
        run_c.outcomes = std::move(entry.outcomes);
      }
    }
    EXPECT_EQ(run_c.outcomes.size(), run_c.stats.reps) << "cell " << c;
    runs.push_back(std::move(run_c));
  }
  return runs;
}

// A full run and a truncated run of one population.  The full run's
// statistics carry every repetition's convergence round; the truncated
// run's final correct counts differ from repetition to repetition, so a
// comparison of outcomes also sees repetitions that trade places.
std::vector<ExperimentCell> full_and_truncated(const PopulationConfig& p,
                                               std::uint64_t seed) {
  return {sf_cell(p, 0.1, seed), truncated_cell(p, 0.3, seed + 1)};
}

// Same statistics and, repetition by repetition, the same final correct
// count and first all-correct round; and a comparison that can fail.
void expect_same_reps(const std::vector<CellRun>& a,
                      const std::vector<CellRun>& b) {
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  ASSERT_TRUE(a[0].stats.mean_convergence_round.has_value());
  bool counts_vary = false;
  for (const RepOutcome& o : a[1].outcomes) {
    counts_vary |= o.correct_at_end != a[1].outcomes[0].correct_at_end;
  }
  EXPECT_TRUE(counts_vary);
  for (std::size_t c = 0; c < a.size(); ++c) {
    expect_same(a[c].stats, b[c].stats);
    ASSERT_EQ(a[c].outcomes.size(), b[c].outcomes.size());
    for (std::size_t r = 0; r < a[c].outcomes.size(); ++r) {
      EXPECT_EQ(a[c].outcomes[r].correct_at_end,
                b[c].outcomes[r].correct_at_end)
          << "cell " << c << " rep " << r;
      EXPECT_EQ(a[c].outcomes[r].first_all_correct,
                b[c].outcomes[r].first_all_correct)
          << "cell " << c << " rep " << r;
    }
  }
}

std::vector<RepOutcome> synthetic_outcomes(const std::string& pattern) {
  std::vector<RepOutcome> outcomes;
  for (const char c : pattern) {
    RepOutcome o;
    o.all_correct_at_end = c == '1';
    o.stable = o.all_correct_at_end;
    o.rounds_run = 10;
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST(StopPoint, DisabledRuleAlwaysRunsMaxReps) {
  const auto outcomes = synthetic_outcomes("0101");
  const StopRule rule{.max_reps = 4, .min_reps = 2, .ci_halfwidth = 0.0};
  EXPECT_EQ(stop_point(outcomes, rule), 4u);
}

TEST(StopPoint, StopsAtSmallestQualifyingPrefix) {
  const auto outcomes = synthetic_outcomes(std::string(32, '1'));
  const StopRule rule{.max_reps = 32, .min_reps = 4, .ci_halfwidth = 0.15};
  const std::uint64_t m = stop_point(outcomes, rule);
  ASSERT_GE(m, rule.min_reps);
  ASSERT_LE(m, rule.max_reps);
  // The returned prefix qualifies...
  EXPECT_LE(wilson_halfwidth(m, m), rule.ci_halfwidth);
  // ...and no shorter prefix >= min_reps does (all-success prefixes have
  // monotonically shrinking half-widths, so checking m-1 suffices).
  if (m > rule.min_reps) {
    EXPECT_GT(wilson_halfwidth(m - 1, m - 1), rule.ci_halfwidth);
  }
  // An all-success run at this target must stop well before 32.
  EXPECT_LT(m, 32u);
}

TEST(StopPoint, MixedPrefixNeverStopsBelowTarget) {
  // Alternating outcomes keep p-hat at 1/2, where Wilson intervals are
  // widest; a tight target cannot be met within 16 reps.
  const auto outcomes = synthetic_outcomes("0101010101010101");
  const StopRule rule{.max_reps = 16, .min_reps = 4, .ci_halfwidth = 0.05};
  EXPECT_EQ(stop_point(outcomes, rule), 16u);
}

TEST(FinalizePrefix, MatchesRepeatHelpers) {
  // Success rates and the mean convergence round, recomputed here from the
  // outcomes of six real runs.
  const auto outcomes = hand_outcomes(sf_cell(pop(120, 1, 0), 0.25, 7), 6);
  double successes = 0.0, stable_successes = 0.0, converged = 0.0;
  double round_sum = 0.0;
  for (const RepOutcome& o : outcomes) {
    successes += o.all_correct_at_end ? 1.0 : 0.0;
    stable_successes += o.all_correct_at_end && o.stable ? 1.0 : 0.0;
    if (o.first_all_correct != kNever) {
      converged += 1.0;
      round_sum += static_cast<double>(o.first_all_correct);
    }
  }
  ASSERT_GT(converged, 0.0);
  const CellStats stats =
      finalize_prefix(outcomes, 6, StopRule{.max_reps = 6});
  EXPECT_EQ(stats.success_rate, successes / 6.0);
  EXPECT_EQ(stats.stable_success_rate, stable_successes / 6.0);
  ASSERT_TRUE(stats.mean_convergence_round.has_value());
  EXPECT_DOUBLE_EQ(*stats.mean_convergence_round, round_sum / converged);
}

TEST(Aggregation, SuccessRate) {
  // Success and stable-success rates of a cell, computed from synthetic
  // outcomes.
  std::vector<RepOutcome> outcomes(4);
  outcomes[0].all_correct_at_end = true;
  outcomes[1].all_correct_at_end = true;
  outcomes[3].all_correct_at_end = true;
  EXPECT_DOUBLE_EQ(
      finalize_prefix(outcomes, 4, StopRule{.max_reps = 4}).success_rate,
      0.75);

  outcomes[0].stable = true;
  const CellStats stats =
      finalize_prefix(outcomes, 4, StopRule{.max_reps = 4});
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.75);
  EXPECT_DOUBLE_EQ(stats.stable_success_rate, 0.25);
  // A prefix longer than the completed outcomes is refused.
  EXPECT_THROW(finalize_prefix({}, 1, StopRule{.max_reps = 1}),
               std::invalid_argument);
}

TEST(Aggregation, StabilityOnTheWrongOpinionIsNotSuccess) {
  // Outcomes can be built by hand (tests, cache records): one that settled
  // (stable) on the WRONG consensus never counts as a success.
  std::vector<RepOutcome> outcomes(4);
  outcomes[0].stable = true;  // stable, but on the wrong opinion
  outcomes[1].stable = true;
  outcomes[1].all_correct_at_end = true;
  outcomes[2].all_correct_at_end = true;
  const CellStats stats =
      finalize_prefix(outcomes, 4, StopRule{.max_reps = 4});
  EXPECT_EQ(stats.successes, 2u);
  EXPECT_EQ(stats.stable_successes, 1u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.5);
  EXPECT_DOUBLE_EQ(stats.stable_success_rate, 0.25);
}

TEST(Aggregation, MeanConvergenceRound) {
  std::vector<RepOutcome> outcomes(3);
  outcomes[0].first_all_correct = 10;
  outcomes[1].first_all_correct = 20;
  outcomes[2].first_all_correct = kNever;  // excluded from the mean
  const CellStats stats =
      finalize_prefix(outcomes, 3, StopRule{.max_reps = 3});
  ASSERT_TRUE(stats.mean_convergence_round.has_value());
  EXPECT_DOUBLE_EQ(*stats.mean_convergence_round, 15.0);

  // No converged repetition → an empty optional, never a numeric sentinel
  // (static_cast<double>(kNever) would leak ~1.8e19 into tables as if it
  // were a round count).
  const std::vector<RepOutcome> none(2);
  EXPECT_FALSE(finalize_prefix(none, 2, StopRule{.max_reps = 2})
                   .mean_convergence_round.has_value());
}

TEST(Aggregation, MeanConvergenceRoundRendersAsNeverInTables) {
  const std::vector<RepOutcome> none(1);
  const CellStats stats = finalize_prefix(none, 1, StopRule{.max_reps = 1});
  Table table({"mcr"});
  table.cell(stats.mean_convergence_round, 1).end_row();
  EXPECT_EQ(table.rows()[0][0], "never");
}

TEST(Scheduler, MatchesRunRepetitions) {
  const auto p = pop(150, 1, 0);
  const std::vector<ExperimentCell> cells = {sf_cell(p, 0.2, 21),
                                             truncated_cell(p, 0.3, 22)};
  const SchedulerOptions opts{.threads = 2, .stop = StopRule{.max_reps = 5}};
  const auto stats = run_experiment(cells, opts);
  ASSERT_EQ(stats.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellStats expected =
        finalize_prefix(hand_outcomes(cells[c], 5), 5, opts.stop);
    EXPECT_EQ(stats[c].success_rate, expected.success_rate);
    EXPECT_EQ(stats[c].mean_convergence_round,
              expected.mean_convergence_round);
    EXPECT_EQ(stats[c].mean_rounds_run, expected.mean_rounds_run);
    EXPECT_EQ(stats[c].reps, 5u);
    EXPECT_EQ(stats[c].reps_computed, 5u);
    EXPECT_EQ(stats[c].reps_cached, 0u);
  }
}

TEST(Repeat, ProducesOneResultPerRepetition) {
  const auto stats = run_experiment(
      {sf_cell(pop(100, 1, 0), 0.1, 1)},
      SchedulerOptions{.threads = 1, .stop = StopRule{.max_reps = 5}});
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].reps, 5u);
  EXPECT_EQ(stats[0].reps_computed, 5u);
  EXPECT_GT(stats[0].mean_rounds_run, 0.0);
}

TEST(Repeat, DeterministicForSameSeed) {
  const auto cells = full_and_truncated(pop(100, 1, 0), 33);
  const SchedulerOptions opts{.threads = 1, .stop = StopRule{.max_reps = 4}};
  expect_same_reps(run_cells(cells, opts, "same_seed_a"),
                   run_cells(cells, opts, "same_seed_b"));
}

TEST(Repeat, ThreadCountDoesNotChangeResults) {
  const auto cells = full_and_truncated(pop(100, 1, 0), 44);
  expect_same_reps(
      run_cells(cells,
                SchedulerOptions{.threads = 1, .stop = StopRule{.max_reps = 6}},
                "threads_1"),
      run_cells(cells,
                SchedulerOptions{.threads = 4, .stop = StopRule{.max_reps = 6}},
                "threads_4"));
}

TEST(Repeat, EngineThreadsDoNotChangeResults) {
  // Inner (block-parallel) lanes compose with outer repetition workers
  // without changing a single result bit.  n spans three engine blocks, so
  // the lanes really split the population.
  const auto cells = full_and_truncated(pop(9000, 1, 0), 77);
  SchedulerOptions serial{.threads = 2, .stop = StopRule{.max_reps = 4}};
  serial.engine_threads = 1;
  SchedulerOptions inner_par = serial;
  inner_par.engine_threads = 3;
  expect_same_reps(run_cells(cells, serial, "engine_threads_1"),
                   run_cells(cells, inner_par, "engine_threads_3"));
}

TEST(Repeat, RepetitionsAreIndependentAcrossSeeds) {
  // Truncated right after the weak opinions form, correct_at_end is a
  // high-entropy count, so the repetitions of two seeds must disagree
  // somewhere.
  const auto p = pop(100, 1, 0);
  const SchedulerOptions opts{.threads = 2, .stop = StopRule{.max_reps = 4}};
  const auto a = run_cells({truncated_cell(p, 0.3, 1)}, opts, "seed_1");
  const auto b = run_cells({truncated_cell(p, 0.3, 2)}, opts, "seed_2");
  ASSERT_EQ(a[0].outcomes.size(), 4u);
  ASSERT_EQ(b[0].outcomes.size(), 4u);
  bool any_diff = false;
  for (std::size_t r = 0; r < a[0].outcomes.size(); ++r) {
    any_diff |= a[0].outcomes[r].correct_at_end !=
                    b[0].outcomes[r].correct_at_end ||
                a[0].outcomes[r].first_all_correct !=
                    b[0].outcomes[r].first_all_correct;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Scheduler, BitIdenticalAcrossWorkerCounts) {
  // The determinism contract's core test: identical statistics AND stop
  // points for 1, 2, and 8 workers and for 1 and 3 engine lanes per
  // repetition, with adaptive early stopping on and a nonzero fault plan in
  // the mix.  The last cell spans three engine blocks, so its lanes really
  // run in parallel.
  FaultPlan plan;
  plan.seed = 5;
  plan.first_eligible = 1;
  plan.drop.p = 0.1;
  plan.byzantine.fraction = 0.05;

  std::vector<ExperimentCell> cells;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ExperimentCell cell = truncated_cell(pop(100 + 30 * i, 1, 0), 0.3, 40 + i);
    if (i % 2 == 1) cell.fault_plan = plan;
    cells.push_back(cell);
  }
  // A full run, so its statistics carry every repetition's convergence
  // round.
  cells.push_back(sf_cell(pop(9000, 1, 0), 0.1, 44));
  const StopRule rule{.max_reps = 12, .min_reps = 3, .ci_halfwidth = 0.22};

  std::vector<std::vector<CellStats>> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned engine_threads : {1u, 3u}) {
      SchedulerOptions opts{.threads = threads, .stop = rule};
      opts.engine_threads = engine_threads;
      runs.push_back(run_experiment(cells, opts));
    }
  }
  bool any_early = false;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t run_index = 1; run_index < runs.size(); ++run_index) {
      expect_same(runs[0][c], runs[run_index][c]);
    }
    any_early |= runs[0][c].early_stopped;
  }
  ASSERT_TRUE(runs[0].back().mean_convergence_round.has_value());
  EXPECT_EQ(runs[0].back().successes, runs[0].back().reps);
  // The rule must actually have fired somewhere, or this test exercises
  // nothing adaptive.
  EXPECT_TRUE(any_early);
}

TEST(Scheduler, CacheColdWarmAndBypassAgree) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "noisypull_sched_cache";
  fs::remove_all(dir);

  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 60),
      truncated_cell(pop(140, 1, 0), 0.25, 61)};
  const StopRule rule{.max_reps = 8, .min_reps = 3, .ci_halfwidth = 0.25};
  SchedulerOptions cached{.threads = 2, .stop = rule,
                          .cache_dir = dir.string()};
  SchedulerOptions bypass{.threads = 2, .stop = rule};

  const auto cold = run_experiment(cells, cached);
  const auto warm = run_experiment(cells, cached);
  const auto off = run_experiment(cells, bypass);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    expect_same(cold[c], warm[c]);
    expect_same(cold[c], off[c]);
    EXPECT_EQ(warm[c].reps_computed, 0u);
    EXPECT_EQ(warm[c].reps_cached, warm[c].reps);
    EXPECT_EQ(off[c].reps_cached, 0u);
  }
  fs::remove_all(dir);
}

TEST(Scheduler, WarmRunExtendsCachedPrefixWhenBudgetGrows) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "noisypull_sched_extend";
  fs::remove_all(dir);

  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 70)};
  SchedulerOptions small{.threads = 1,
                         .stop = StopRule{.max_reps = 4},
                         .cache_dir = dir.string()};
  SchedulerOptions large{.threads = 1,
                         .stop = StopRule{.max_reps = 9},
                         .cache_dir = dir.string()};

  const auto first = run_experiment(cells, small);
  EXPECT_EQ(first[0].reps_computed, 4u);
  const auto second = run_experiment(cells, large);
  // The 4 cached repetitions are replayed; only the 5 new ones simulate.
  EXPECT_EQ(second[0].reps, 9u);
  EXPECT_EQ(second[0].reps_cached, 4u);
  EXPECT_EQ(second[0].reps_computed, 5u);

  // And the superset must match a cache-bypassing run bit for bit.
  const auto reference = run_experiment(
      cells, SchedulerOptions{.threads = 1, .stop = StopRule{.max_reps = 9}});
  expect_same(second[0], reference[0]);
  fs::remove_all(dir);
}

TEST(Scheduler, CorruptCacheFileIsAMissNotAnError) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "noisypull_sched_corrupt";
  fs::remove_all(dir);

  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 80)};
  SchedulerOptions opts{.threads = 1,
                        .stop = StopRule{.max_reps = 3},
                        .cache_dir = dir.string()};
  const auto cold = run_experiment(cells, opts);

  // Truncate the cell's cache file mid-record.
  std::string file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::ofstream out(file, std::ios::trunc);
    out << "noisypull-cell-cache 1 deadbeef 3\n0 1";
  }
  const auto recovered = run_experiment(cells, opts);
  expect_same(cold[0], recovered[0]);
  EXPECT_EQ(recovered[0].reps_computed, 3u);  // full recompute, no crash
  fs::remove_all(dir);
}

TEST(Scheduler, CacheKeyDistinguishesEveryTrajectoryInput) {
  const ExperimentCell base = sf_cell(pop(100, 1, 0), 0.2, 90);
  const std::uint64_t key = cell_cache_key(base);

  ExperimentCell changed = base;
  changed.seed = 91;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.cfg.max_rounds = 17;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.noise = NoiseMatrix::uniform(2, 0.21);
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.protocol_digest ^= 1;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.fault_plan = FaultPlan{};
  EXPECT_NE(cell_cache_key(changed), key);

  // Trajectory-invariant knobs must NOT shift the key: a cache filled on
  // one machine serves another with a different worker count.
  changed = base;
  changed.label = "different label";
  EXPECT_EQ(cell_cache_key(changed), key);
}

TEST(Repeat, FactoryExceptionsPropagateToTheCaller) {
  ExperimentCell cell = sf_cell(pop(50, 1, 0), 0.1, 1);
  cell.make_protocol = [](Rng&) -> std::unique_ptr<PullProtocol> {
    throw std::invalid_argument("factory failure");
  };
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW(
        run_experiment({cell},
                       SchedulerOptions{.threads = threads,
                                        .stop = StopRule{.max_reps = 6}}),
        std::invalid_argument)
        << "threads=" << threads;
  }
}

TEST(Repeat, RunExceptionsPropagateToTheCaller) {
  // Alphabet mismatch between protocol (binary) and noise (3 symbols)
  // surfaces from inside the repetition, serial and pooled.
  ExperimentCell cell = sf_cell(pop(50, 1, 0), 0.1, 1);
  cell.noise = NoiseMatrix::uniform(3, 0.1);
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW(
        run_experiment({cell},
                       SchedulerOptions{.threads = threads,
                                        .stop = StopRule{.max_reps = 4}}),
        std::invalid_argument)
        << "threads=" << threads;
  }
}

TEST(Repeat, RejectsZeroRepetitions) {
  EXPECT_THROW(
      run_experiment({sf_cell(pop(50, 1, 0), 0.1, 1)},
                     SchedulerOptions{.threads = 1,
                                      .stop = StopRule{.max_reps = 0}}),
      std::invalid_argument);
}

TEST(Scheduler, RejectsTrajectoryRecording) {
  ExperimentCell cell = sf_cell(pop(100, 1, 0), 0.2, 95);
  cell.cfg.record_trajectory = true;
  EXPECT_THROW(run_experiment({cell}, SchedulerOptions{.threads = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace noisypull
