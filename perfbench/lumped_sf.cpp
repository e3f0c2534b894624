// lumped_sf_1e12: one Source Filter run to its horizon on the lumped
// population engine at n = 10^12.  The only workload where
// sim/lumped_engine, ObservationSampler::split and rng/binomial do the
// work; it has no pool and no per-agent state, so agent-engine changes
// should leave it unchanged.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "noisypull/noisypull.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace noisypull;

constexpr std::uint64_t kN = 1'000'000'000'000ULL;
constexpr std::uint64_t kH = 64;
constexpr double kDelta = 0.1;
constexpr std::uint64_t kS1 = 1'000'000;

// Rounds of the same-seed determinism gate.
constexpr std::uint64_t kPrefixRounds = 64;

constexpr std::uint64_t kRunStream = 1;
constexpr std::uint64_t kProbeStream = 2;

const PopulationConfig kPop{.n = kN, .s1 = kS1, .s0 = 0};

LumpedSetup make_setup() {
  const NoiseMatrix noise = NoiseMatrix::uniform(2, kDelta);
  return make_lumped_sf(
      kPop, make_sf_schedule(kPop, Holdings{kH}, Delta{kDelta}), noise);
}

RunOutcome untraced_run(std::uint64_t seed, std::uint64_t max_rounds) {
  LumpedSetup s = make_setup();
  Rng rng(seed);
  const std::int64_t t0 = now_ns();
  RunOutcome out;
  out.result = run_lumped(*s.engine, kPop.correct_opinion(),
                          RunConfig{.h = kH, .max_rounds = max_rounds}, rng);
  out.run_s = seconds_since(t0);
  out.digest = s.engine->replay_digest();
  return out;
}

// The same run as untraced_run, stepped round by round.  Before each step it
// times display_histogram on the start-of-round state and one
// ObservationSampler::split of n / support draws over the round's law, on a
// sampler and substream the benchmark owns (never the run's rng).
RunOutcome traced_run(std::uint64_t seed, std::uint64_t probe_seed,
                      Tracer& tracer, Result& result) {
  const std::int64_t setup_begin = now_ns();
  LumpedSetup s = make_setup();
  tracer.add("setup", setup_begin, now_ns(), Tracer::kNoParent, 0);
  LumpedEngine& engine = *s.engine;
  const NoiseMatrix noise = NoiseMatrix::uniform(2, kDelta);
  const Opinion correct = kPop.correct_opinion();
  const std::uint64_t rounds = engine.planned_rounds();
  Rng rng(seed);
  Rng probe_rng(probe_seed);
  ObservationSampler sampler;
  std::uint64_t streak_start = kNever;
  bool split_conserves = true;

  RunOutcome out;
  const std::int64_t run_begin = now_ns();
  {
    const Tracer::Scope run_span(tracer, "run");
    for (std::uint64_t t = 0; t < rounds; ++t) {
      std::vector<std::uint64_t> c;
      {
        const Tracer::Scope span(tracer, "sim.lumped_display");
        c = engine.display_histogram(t);
      }
      const auto support = static_cast<double>(engine.support_size());
      std::vector<double> q(c.size(), 0.0);
      for (std::size_t to = 0; to < c.size(); ++to) {
        for (std::size_t from = 0; from < c.size(); ++from) {
          q[to] += static_cast<double>(c[from]) *
                   noise(static_cast<Symbol>(from), static_cast<Symbol>(to));
        }
      }
      sampler.reset(kH, q, engine.sampler_cache(), kN);
      const std::uint64_t k = kN / engine.support_size();
      std::uint64_t shares = 0;
      {
        const Tracer::Scope span(tracer, "rng.split");
        sampler.split(probe_rng, k,
                      [&](std::uint64_t share, std::span<const std::uint64_t>) {
                        shares += share;
                      });
      }
      split_conserves = split_conserves && shares == k;
      {
        const Tracer::Scope span(tracer, "sim.lumped_step", support);
        engine.step(Holdings{kH}, t, rng);
      }
      std::uint64_t good = 0;
      {
        const Tracer::Scope span(tracer, "sim.lumped_count_correct");
        good = engine.count_correct(correct);
      }
      if (good == kN) {
        if (streak_start == kNever) streak_start = t;
      } else {
        streak_start = kNever;
      }
    }
    out.result.rounds_run = rounds;
    out.result.correct_at_end = engine.count_correct(correct);
    out.result.all_correct_at_end = out.result.correct_at_end == kN;
    out.result.first_all_correct = streak_start;
  }
  out.run_s = seconds_since(run_begin);
  out.digest = engine.replay_digest();
  result.gate(split_conserves, "every probe split hands out exactly k draws");
  result.metric("rng.outcomes", static_cast<double>(sampler.num_outcomes()),
                "count");
  return out;
}

}  // namespace

Result run_lumped_sf(const Args& args, Tracer& tracer) {
  Result result;
  result.lanes = 1;
  const std::uint64_t run_seed = derive_seed(args.seed, kRunStream);

  // Gate: two same-seed runs over a prefix have the same digest.
  result.gate(untraced_run(run_seed, kPrefixRounds).digest ==
                  untraced_run(run_seed, kPrefixRounds).digest,
              "two same-seed lumped runs have equal replay digests");

  if (!args.trace) {
    std::vector<double> run_s;
    std::vector<double> rounds_per_s;
    std::vector<std::uint64_t> digests;
    timed_loop(args.seconds, [&] {
      const RunOutcome o = untraced_run(run_seed, 0);
      ++result.attempted;
      if (!converged(o.result)) ++result.failed;
      run_s.push_back(o.run_s);
      rounds_per_s.push_back(static_cast<double>(o.result.rounds_run) /
                             o.run_s);
      digests.push_back(o.digest);
    });
    result.gate(std::all_of(digests.begin(), digests.end(),
                            [&](std::uint64_t d) { return d == digests[0]; }),
                "same-seed runs have equal replay digests");
    double total_s = 0.0;
    for (const double s : run_s) total_s += s;
    // Peak memory of the gates and runs, read before the setup samples.
    const double peak_mb = peak_rss_mb();
    const double setup_s = median_setup_seconds([] { return make_setup(); });
    result.metric("setup_s", setup_s, "s");
    result.metric("run_s", median(run_s), "s");
    result.metric("rounds_per_s", median(rounds_per_s), "1/s");
    result.metric("reps_per_s", static_cast<double>(run_s.size()) / total_s,
                  "1/s");
    result.metric("peak_rss_mb", peak_mb, "MB");
    result.correct = result.correct && result.failed == 0;
    return result;
  }

  const RunOutcome plain = untraced_run(run_seed, 0);
  const RunOutcome traced = traced_run(
      run_seed, derive_seed(args.seed, kProbeStream), tracer, result);
  result.attempted += 2;
  result.failed += (converged(plain.result) ? 0 : 1) +
                   (converged(traced.result) ? 0 : 1);
  result.gate(plain.digest == traced.digest &&
                  plain.result.first_all_correct ==
                      traced.result.first_all_correct,
              "traced and untraced runs have equal digests and "
              "first_all_correct");

  const std::vector<double> step = tracer.durations_ns("sim.lumped_step");
  const std::vector<double> support = tracer.values("sim.lumped_step");
  const double outcomes = static_cast<double>(kH + 1);
  std::vector<double> ns_per_cell(step.size());
  for (std::size_t r = 0; r < step.size(); ++r) {
    ns_per_cell[r] = step[r] / (support[r] * outcomes);
  }
  double support_sum = 0.0;
  for (const double v : support) support_sum += v;
  result.metric("sim.lumped_step_ms.p50", quantile(step, 0.5) * 1e-6, "ms");
  result.metric("sim.lumped_step_ms.p99", quantile(step, 0.99) * 1e-6, "ms");
  result.metric("sim.lumped_support.mean",
                ratio(support_sum, static_cast<double>(support.size())),
                "count");
  result.metric(
      "sim.lumped_support.max",
      support.empty() ? 0.0 : *std::max_element(support.begin(), support.end()),
      "count");
  result.metric("sim.lumped_ns_per_cell", median(ns_per_cell), "ns");
  result.metric("sim.lumped_display_us",
                median(tracer.durations_ns("sim.lumped_display")) * 1e-3, "us");
  result.metric("sim.lumped_count_correct_us",
                median(tracer.durations_ns("sim.lumped_count_correct")) * 1e-3,
                "us");
  result.metric("rng.split_us", median(tracer.durations_ns("rng.split")) * 1e-3,
                "us");
  const double probes_ns =
      tracer.total_ns("sim.lumped_display") + tracer.total_ns("rng.split");
  result.metric("trace_overhead_frac",
                (traced.run_s - probes_ns * 1e-9) / plain.run_s - 1.0,
                "ratio");
  result.correct = result.correct && result.failed == 0;
  return result;
}

}  // namespace perfbench
