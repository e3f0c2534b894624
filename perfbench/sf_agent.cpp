// The agent workloads: one Source Filter run to its protocol horizon on
// the AggregateEngine — the round kernel (display, digest, sampler, update,
// pool dispatch).  They never enter analysis/, sim/lumped_engine or
// rng/binomial.
//
//   sf_agent_1e5  n = 10^5, timed at one lane (listed in BENCHMARK.json);
//   sf_agent_1e6  n = 10^6, timed at L = min(4, nproc) lanes — the
//                 ROADMAP's reference size, withheld from BENCHMARK.json
//                 because its run time is not steady on a shared host
//                 (README.md).
//
// Both run the lane gate, the 1-lane / L-lane prefix speedup and the pool
// dispatch probe at L lanes.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "noisypull/noisypull.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace noisypull;

constexpr std::uint64_t kH = 64;
constexpr double kDelta = 0.1;
constexpr std::uint64_t kS1 = 1000;

// Rounds of the lane gate (and of the lane-speedup measurement).
constexpr std::uint64_t kPrefixRounds = 32;
// Draws timed per round by the rng.sample_ns probe.
constexpr std::uint64_t kProbeDraws = 4096;
// ThreadPool::parallel_for calls timed by the dispatch probe.
constexpr std::uint64_t kDispatches = 200;
// Jobs per dispatch: one per engine block (Engine::kBlockSize agents).
constexpr std::uint64_t kBlockAgents = 4096;

constexpr std::uint64_t kRunStream = 1;
constexpr std::uint64_t kProbeStream = 2;

PopulationConfig population(std::uint64_t n) {
  return PopulationConfig{.n = n, .s1 = kS1, .s0 = 0};
}

struct Setup {
  std::unique_ptr<SourceFilter> protocol;
  std::unique_ptr<AggregateEngine> engine;
};

// Protocol, engine and pool construction: what setup_s measures.
Setup make_setup(std::uint64_t n, unsigned lanes) {
  Setup s{std::make_unique<SourceFilter>(population(n), Holdings{kH},
                                         Delta{kDelta}),
          std::make_unique<AggregateEngine>()};
  s.engine->set_threads(lanes);
  return s;
}

std::uint64_t prefix_digest(std::uint64_t n, unsigned lanes,
                            std::uint64_t seed, const NoiseMatrix& noise,
                            Tracer* tracer) {
  Setup s = make_setup(n, lanes);
  Rng rng(seed);
  for (std::uint64_t t = 0; t < kPrefixRounds; ++t) {
    if (tracer == nullptr) {
      s.engine->step(*s.protocol, noise, Holdings{kH}, t, rng);
    } else {
      const Tracer::Scope span(*tracer, lanes == 1 ? "model.step.prefix_1lane"
                                                   : "model.step.prefix_lanes");
      s.engine->step(*s.protocol, noise, Holdings{kH}, t, rng);
    }
  }
  return s.engine->replay_digest();
}

RunOutcome untraced_run(std::uint64_t n, unsigned lanes, std::uint64_t seed,
                        const NoiseMatrix& noise) {
  Setup s = make_setup(n, lanes);
  Rng rng(seed);
  const std::int64_t t0 = now_ns();
  RunOutcome out;
  out.result = run(*s.protocol, *s.engine, noise,
                   population(n).correct_opinion(), RunConfig{.h = kH}, rng);
  out.run_s = seconds_since(t0);
  out.digest = s.engine->replay_digest();
  return out;
}

// The same run as untraced_run, driven round by round so each layer can be
// timed: before every Engine::step it replays, on the start-of-round state,
// the serial display loop, the FNV digest chain and the sampler reset of the
// round's law, and times sampler draws on a substream the benchmark owns.
// Those replays run outside the step span and never touch the run's rng;
// their chained digest must equal the engine's (a gate).
RunOutcome traced_run(std::uint64_t n, unsigned lanes, std::uint64_t seed,
                      std::uint64_t probe_seed, const NoiseMatrix& noise,
                      Tracer& tracer, Result& result) {
  const std::int64_t setup_begin = now_ns();
  Setup s = make_setup(n, lanes);
  tracer.add("setup", setup_begin, now_ns(), Tracer::kNoParent, 0);
  SourceFilter& protocol = *s.protocol;
  AggregateEngine& engine = *s.engine;
  Rng rng(seed);
  Rng probe_rng(probe_seed);
  const Opinion correct = population(n).correct_opinion();
  const std::uint64_t rounds = protocol.planned_rounds();

  std::vector<Symbol> displays(n);
  ObservationSampler sampler;
  SymbolCounts obs(2);
  std::uint64_t chain = fnv::kOffsetBasis;
  bool chain_matches = true;
  std::uint64_t streak_start = kNever;

  RunOutcome out;
  const std::int64_t run_begin = now_ns();
  {
    const Tracer::Scope run_span(tracer, "run");
    for (std::uint64_t t = 0; t < rounds; ++t) {
      std::array<std::uint64_t, 2> c{};
      {
        const Tracer::Scope span(tracer, "core.display");
        for (std::uint64_t i = 0; i < n; ++i) {
          displays[i] = protocol.display(i, t);
          ++c[displays[i]];
        }
      }
      {
        const Tracer::Scope span(tracer, "common.fnv");
        chain = fnv::hash_u64(chain, t);
        for (const Symbol d : displays) chain = fnv::hash_byte(chain, d);
      }
      std::array<double, 2> q{};
      for (std::size_t to = 0; to < 2; ++to) {
        for (std::size_t from = 0; from < 2; ++from) {
          q[to] += static_cast<double>(c[from]) *
                   noise(static_cast<Symbol>(from), static_cast<Symbol>(to));
        }
      }
      {
        const Tracer::Scope span(tracer, "rng.sampler_reset");
        sampler.reset(kH, q, engine.sampler_cache(), n);
      }
      {
        const Tracer::Scope span(tracer, "rng.sample",
                                 static_cast<double>(kProbeDraws));
        for (std::uint64_t k = 0; k < kProbeDraws; ++k) {
          sampler.sample(probe_rng, obs);
        }
      }
      {
        const Tracer::Scope span(tracer, "model.step");
        engine.step(protocol, noise, Holdings{kH}, t, rng);
      }
      chain_matches = chain_matches && chain == engine.replay_digest();
      std::uint64_t good = 0;
      {
        const Tracer::Scope span(tracer, "sim.count_correct");
        good = count_correct(protocol, correct);
      }
      if (good == n) {
        if (streak_start == kNever) streak_start = t;
      } else {
        streak_start = kNever;
      }
    }
    out.result.rounds_run = rounds;
    out.result.correct_at_end = count_correct(protocol, correct);
    out.result.all_correct_at_end = out.result.correct_at_end == n;
    out.result.first_all_correct = streak_start;
  }
  out.run_s = seconds_since(run_begin);
  out.digest = engine.replay_digest();
  result.gate(chain_matches,
              "replayed display/FNV chain equals the engine's replay digest");
  result.metric("rng.outcomes", static_cast<double>(sampler.num_outcomes()),
                "count");
  return out;
}

// parallel_for over one no-op job per engine block at the workload's lanes;
// each job records the CPU it ran on.
void pool_probe(std::uint64_t n, unsigned lanes, Tracer& tracer,
                Result& result) {
  const std::uint64_t jobs = (n + kBlockAgents - 1) / kBlockAgents;
  std::vector<int> cpu_of_job(jobs, -1);
  std::set<int> cpus;
  ThreadPool pool(lanes);
  for (std::uint64_t k = 0; k < kDispatches; ++k) {
    {
      const Tracer::Scope span(tracer, "common.pool_dispatch");
      pool.parallel_for(jobs, [&](std::uint64_t j) {
        cpu_of_job[j] = sched_getcpu();
      });
    }
    cpus.insert(cpu_of_job.begin(), cpu_of_job.end());
  }
  cpus.erase(-1);
  result.metric("common.pool_dispatch_us",
                median(tracer.durations_ns("common.pool_dispatch")) * 1e-3,
                "us");
  result.metric("common.pool_cpus", static_cast<double>(cpus.size()), "count");
}

Result run_sf_agent(const Args& args, Tracer& tracer, std::uint64_t n,
                    unsigned lanes) {
  Result result;
  result.lanes = lanes;
  result.probe_lanes = default_lanes();
  const NoiseMatrix noise = NoiseMatrix::uniform(2, kDelta);
  const std::uint64_t run_seed = derive_seed(args.seed, kRunStream);

  // Gate: the block-parallel kernel is lane-invariant over a prefix.
  Tracer* prefix_tracer = args.trace ? &tracer : nullptr;
  const std::uint64_t one_lane =
      prefix_digest(n, 1, run_seed, noise, prefix_tracer);
  const std::uint64_t many_lanes =
      prefix_digest(n, result.probe_lanes, run_seed, noise, prefix_tracer);
  result.gate(one_lane == many_lanes,
              "replay digest at 1 lane equals the digest at L lanes");

  if (!args.trace) {
    std::vector<double> run_s;
    std::vector<double> rounds_per_s;
    std::vector<std::uint64_t> digests;
    timed_loop(args.seconds, [&] {
      const RunOutcome o = untraced_run(n, lanes, run_seed, noise);
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
    const double setup_s =
        median_setup_seconds([&] { return make_setup(n, lanes); });
    result.metric("setup_s", setup_s, "s");
    result.metric("run_s", median(run_s), "s");
    result.metric("rounds_per_s", median(rounds_per_s), "1/s");
    result.metric("reps_per_s", static_cast<double>(run_s.size()) / total_s,
                  "1/s");
    result.metric("peak_rss_mb", peak_mb, "MB");
    result.correct = result.correct && result.failed == 0;
    return result;
  }

  // Traced run: an untraced run of the same seed first, then the traced one.
  const RunOutcome plain = untraced_run(n, lanes, run_seed, noise);
  const RunOutcome traced =
      traced_run(n, lanes, run_seed, derive_seed(args.seed, kProbeStream),
                 noise, tracer, result);
  result.attempted += 2;
  result.failed += (converged(plain.result) ? 0 : 1) +
                   (converged(traced.result) ? 0 : 1);
  result.gate(plain.digest == traced.digest &&
                  plain.result.first_all_correct ==
                      traced.result.first_all_correct,
              "traced and untraced runs have equal digests and "
              "first_all_correct");
  pool_probe(n, result.probe_lanes, tracer, result);

  const std::vector<double> step = tracer.durations_ns("model.step");
  const std::vector<double> display = tracer.durations_ns("core.display");
  const std::vector<double> fnv = tracer.durations_ns("common.fnv");
  const std::vector<double> reset = tracer.durations_ns("rng.sampler_reset");
  std::vector<double> apply(step.size());
  for (std::size_t r = 0; r < step.size(); ++r) {
    apply[r] = step[r] - display[r] - fnv[r] - reset[r];
  }
  result.metric("model.step_ms.p50", quantile(step, 0.5) * 1e-6, "ms");
  result.metric("model.step_ms.p99", quantile(step, 0.99) * 1e-6, "ms");
  result.metric("core.display_ms", median(display) * 1e-6, "ms");
  result.metric("common.fnv_ms", median(fnv) * 1e-6, "ms");
  result.metric("rng.sampler_reset_us", median(reset) * 1e-3, "us");
  result.metric("rng.sample_ns",
                median(tracer.durations_ns("rng.sample")) /
                    static_cast<double>(kProbeDraws),
                "ns");
  result.metric("model.apply_ms", median(apply) * 1e-6, "ms");
  result.metric("sim.count_correct_ms",
                median(tracer.durations_ns("sim.count_correct")) * 1e-6, "ms");
  result.metric("model.lane_speedup",
                ratio(tracer.total_ns("model.step.prefix_1lane"),
                      tracer.total_ns("model.step.prefix_lanes")),
                "x");
  // Tracing cost: the traced run's wall time less the benchmark's own
  // replay probes, against the untraced run.
  const double probes_ns = tracer.total_ns("core.display") +
                           tracer.total_ns("common.fnv") +
                           tracer.total_ns("rng.sampler_reset") +
                           tracer.total_ns("rng.sample");
  result.metric("trace_overhead_frac",
                (traced.run_s - probes_ns * 1e-9) / plain.run_s - 1.0,
                "ratio");
  result.correct = result.correct && result.failed == 0;
  return result;
}

}  // namespace

Result run_sf_agent_1e5(const Args& args, Tracer& tracer) {
  return run_sf_agent(args, tracer, 100'000, 1);
}

Result run_sf_agent_1e6(const Args& args, Tracer& tracer) {
  return run_sf_agent(args, tracer, 1'000'000, default_lanes());
}

}  // namespace perfbench
