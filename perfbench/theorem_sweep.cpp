// theorem_sweep: the cell grids of bench/tab_thm4_scaling_n (16 SF cells)
// and bench/tab_thm5_selfstab (10 SSF cells) in one run_experiment queue,
// cold, then replayed against the warm cache.  Thousands of short
// repetitions at n <= 16 000 make the scheduler queue, per-repetition
// setup, cache/manifest I/O and tail balance dominate, and they use the
// engine unlike sf_agent_1e6: one lane, h = n (a 16 001-outcome sampler
// table amortised over only n draws), and SSF's 4-symbol alphabet in the
// Decomposition sampler mode.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "noisypull/noisypull.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace noisypull;
namespace fs = std::filesystem;

constexpr double kSfDelta = 0.2;
constexpr double kSsfDelta = 0.05;
constexpr std::uint64_t kSfSources = 1;
constexpr std::uint64_t kSsfSources = 2;
constexpr std::uint64_t kPolicyN = 2000;
constexpr std::uint64_t kStabilityDeadlines = 3;
constexpr std::uint64_t kSmallNWithH1 = 500;  // h = 1 is Θ(n log n) rounds
// run_experiment takes one StopRule per queue, so every cell runs
// tab_thm4_scaling_n's 8 repetitions (tab_thm5_selfstab uses 6).
constexpr std::uint64_t kReps = 8;
// init substream of repetition 0, as the scheduler derives it (Rng(seed, 2r)).
constexpr std::uint64_t kRepZeroInitStream = 0;

// Timestamps of one repetition: start from SchedulerOptions::rep_hook, end
// from the destructor of the repetition's protocol.  Preallocated per
// (cell, rep), each written only by the worker running that repetition.
struct RepSlot {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t tid = 0;
};

// The slot of the repetition the current scheduler worker is running; set
// by the rep hook, read by the protocol factory right after it on the same
// thread.
thread_local RepSlot* current_slot = nullptr;

// A protocol that stamps its repetition's end time when the scheduler
// destroys it; behaviour is otherwise the wrapped protocol's.
template <typename Protocol>
class Stamped final : public Protocol {
 public:
  template <typename... A>
  explicit Stamped(A&&... a)
      : Protocol(std::forward<A>(a)...), slot_(current_slot) {}
  ~Stamped() override {
    if (slot_ != nullptr) slot_->end_ns = now_ns();
  }

 private:
  RepSlot* slot_;
};

ProtocolFactory sf_factory(const PopulationConfig& pop, std::uint64_t h,
                           bool stamped) {
  return [pop, h, stamped](Rng&) -> std::unique_ptr<PullProtocol> {
    if (stamped) {
      return std::make_unique<Stamped<SourceFilter>>(pop, Holdings{h},
                                                     Delta{kSfDelta});
    }
    return std::make_unique<SourceFilter>(pop, Holdings{h}, Delta{kSfDelta});
  };
}

ProtocolFactory ssf_factory(const PopulationConfig& pop,
                            CorruptionPolicy policy, bool stamped) {
  return [pop, policy, stamped](Rng& init) -> std::unique_ptr<PullProtocol> {
    std::unique_ptr<SelfStabilizingSourceFilter> ssf;
    if (stamped) {
      ssf = std::make_unique<Stamped<SelfStabilizingSourceFilter>>(
          pop, Holdings{pop.n}, Delta{kSsfDelta});
    } else {
      ssf = std::make_unique<SelfStabilizingSourceFilter>(pop, Holdings{pop.n},
                                                          Delta{kSsfDelta});
    }
    corrupt_population(*ssf, policy, pop.correct_opinion(), init);
    return ssf;
  };
}

// Cache-key digests over everything the factories capture, folded like the
// theorem benches fold theirs.
std::uint64_t sf_digest(const PopulationConfig& pop, std::uint64_t h) {
  return CellKey()
      .str("SourceFilter")
      .u64(pop.n)
      .u64(pop.s1)
      .u64(pop.s0)
      .u64(h)
      .f64(kSfDelta)
      .f64(kDefaultC1.get())
      .digest();
}

std::uint64_t ssf_digest(const PopulationConfig& pop, CorruptionPolicy policy) {
  return CellKey()
      .str("SelfStabilizingSourceFilter")
      .u64(pop.n)
      .u64(pop.s1)
      .u64(pop.s0)
      .u64(pop.n)
      .f64(kSsfDelta)
      .str(to_string(policy))
      .f64(kDefaultC1.get())
      .digest();
}

// The 26 cells; cell i runs on a seed derived from the benchmark seed.
std::vector<ExperimentCell> build_cells(std::uint64_t seed, bool stamped) {
  std::vector<ExperimentCell> cells;
  const auto next_seed = [&] { return derive_seed(seed, cells.size()); };
  for (const std::uint64_t n : {250ULL, 500ULL, 1000ULL, 2000ULL, 4000ULL,
                                8000ULL, 16000ULL}) {
    const PopulationConfig pop{.n = n, .s1 = kSfSources, .s0 = 0};
    std::vector<std::uint64_t> hs = {
        static_cast<std::uint64_t>(std::llround(std::sqrt(n))), n};
    if (n <= kSmallNWithH1) hs.insert(hs.begin(), 1);
    for (const std::uint64_t h : hs) {
      cells.push_back(ExperimentCell{
          .label = "sf n=" + std::to_string(n) + " h=" + std::to_string(h),
          .make_protocol = sf_factory(pop, h, stamped),
          .noise = NoiseMatrix::uniform(2, kSfDelta),
          .correct = pop.correct_opinion(),
          .cfg = RunConfig{.h = h},
          .seed = next_seed(),
          .protocol_digest = sf_digest(pop, h)});
    }
  }
  const NoiseMatrix ssf_noise = NoiseMatrix::uniform(4, kSsfDelta);
  const PopulationConfig pop_a{.n = kPolicyN, .s1 = kSsfSources, .s0 = 0};
  const std::uint64_t deadline_a =
      SelfStabilizingSourceFilter(pop_a, Holdings{kPolicyN}, Delta{kSsfDelta})
          .convergence_deadline();
  for (const CorruptionPolicy policy : kAllCorruptionPolicies) {
    cells.push_back(ExperimentCell{
        .label = std::string("ssf policy ") + to_string(policy),
        .make_protocol = ssf_factory(pop_a, policy, stamped),
        .noise = ssf_noise,
        .correct = pop_a.correct_opinion(),
        .cfg = RunConfig{.h = kPolicyN,
                         .max_rounds = deadline_a,
                         .stability_window = kStabilityDeadlines * deadline_a},
        .seed = next_seed(),
        .protocol_digest = ssf_digest(pop_a, policy)});
  }
  for (const std::uint64_t n : {500ULL, 1000ULL, 2000ULL, 4000ULL, 8000ULL}) {
    const PopulationConfig pop{.n = n, .s1 = kSsfSources, .s0 = 0};
    const std::uint64_t deadline =
        SelfStabilizingSourceFilter(pop, Holdings{n}, Delta{kSsfDelta})
            .convergence_deadline();
    cells.push_back(ExperimentCell{
        .label = "ssf n=" + std::to_string(n),
        .make_protocol =
            ssf_factory(pop, CorruptionPolicy::WrongConsensus, stamped),
        .noise = ssf_noise,
        .correct = pop.correct_opinion(),
        .cfg = RunConfig{.h = n, .max_rounds = deadline},
        .seed = next_seed(),
        .protocol_digest = ssf_digest(pop, CorruptionPolicy::WrongConsensus)});
  }
  return cells;
}

SchedulerOptions options(const fs::path& dir, unsigned workers) {
  SchedulerOptions o;
  o.threads = workers;
  o.engine_threads = 1;
  o.stop.max_reps = kReps;
  o.stop.min_reps = kReps;
  o.cache_dir = (dir / "cache").string();
  o.manifest_path = (dir / "manifest").string();
  return o;
}

struct SweepRun {
  std::vector<CellStats> stats;
  std::string report;
  double run_s = 0.0;
  std::int64_t end_ns = 0;
};

SweepRun run_sweep(const std::vector<ExperimentCell>& cells,
                   const SchedulerOptions& opts) {
  SweepRun out;
  const std::int64_t t0 = now_ns();
  out.stats = run_experiment(cells, opts);
  out.end_ns = now_ns();
  out.run_s = static_cast<double>(out.end_ns - t0) * 1e-9;
  out.report = sweep_report_json(cells, out.stats);
  return out;
}

// A fresh, empty directory: every cold sweep starts without cache or
// manifest.
fs::path fresh_dir(const Args& args, const std::string& tag) {
  const fs::path dir =
      fs::path(args.work_dir) /
      ("theorem_sweep-" + std::to_string(getpid()) + "-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct Totals {
  std::uint64_t reps = 0;
  std::uint64_t no_consensus = 0;  // reps that ended without consensus
  std::uint64_t degraded = 0;      // cells whose retry budget ran out
  std::uint64_t computed = 0;
  double rounds = 0.0;
};

Totals totals(const std::vector<CellStats>& stats) {
  Totals t;
  for (const CellStats& s : stats) {
    t.reps += s.reps;
    t.no_consensus += s.reps - s.successes;
    t.degraded += s.degraded ? 1 : 0;
    t.computed += s.reps_computed;
    t.rounds += s.mean_rounds_run * static_cast<double>(s.reps);
  }
  return t;
}

// Counts the sweep's repetitions into the result.  A repetition is an
// operation of this workload and a degraded cell is a failed one.
// Repetitions that end without consensus are not failures: at these small
// n the theorems promise consensus only with high probability, and the
// per-cell success rate is the table the sweep exists to produce (about
// one repetition in 200 misses at delta = 0.2, s1 = 1).  Each cell with
// such repetitions is printed with its seed, so it can be replayed.
Totals count_reps(const std::vector<ExperimentCell>& cells,
                  const std::vector<CellStats>& stats, Result& result) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellStats& s = stats[c];
    if (s.successes == s.reps && !s.degraded) continue;
    std::printf("cell %zu (%s, seed %llu): %llu of %llu reps without "
                "consensus%s\n",
                c, cells[c].label.c_str(),
                static_cast<unsigned long long>(cells[c].seed),
                static_cast<unsigned long long>(s.reps - s.successes),
                static_cast<unsigned long long>(s.reps),
                s.degraded ? ", degraded" : "");
  }
  const Totals t = totals(stats);
  std::printf("no_consensus %llu of %llu reps\n",
              static_cast<unsigned long long>(t.no_consensus),
              static_cast<unsigned long long>(t.reps));
  result.attempted += t.reps;
  result.failed += t.degraded;
  return t;
}

// Replays the sweep against the warm cache and manifest left by `cold`; the
// report must be byte-identical with no repetition recomputed.  Returns the
// number of repetitions the replay computed.
std::uint64_t warm_gate(const std::vector<ExperimentCell>& cells,
                        SchedulerOptions opts, const SweepRun& cold,
                        Result& result) {
  opts.rep_hook = nullptr;
  const SweepRun warm = run_sweep(cells, opts);
  const std::uint64_t computed = totals(warm.stats).computed;
  result.gate(warm.report == cold.report && computed == 0,
              "warm replay report is byte-identical with 0 reps recomputed");
  return computed;
}

std::string cache_file_name(std::uint64_t key) {
  char name[64];
  std::snprintf(name, sizeof(name), "cell-%016llx.npsum",
                static_cast<unsigned long long>(key));
  return name;
}

// Reads and parses each cell's real cache entry from the cold traced sweep,
// then re-serializes it and publishes it under a probe directory.
void cache_probe(const std::vector<ExperimentCell>& cells,
                 const fs::path& dir, Tracer& tracer, Result& result) {
  bool all_hit = true;
  for (const ExperimentCell& cell : cells) {
    const std::uint64_t key = cell_cache_key(cell);
    const std::string name = cache_file_name(key);
    CacheEntry entry;
    {
      const Tracer::Scope span(tracer, "analysis.cache_read");
      const std::optional<std::string> payload =
          io::read_file(dir / "cache" / name);
      if (payload) entry = parse_cache_entry(*payload, key);
    }
    all_hit = all_hit && entry.status == CacheEntryStatus::kHit;
    {
      const Tracer::Scope span(tracer, "analysis.cache_write");
      io::atomic_write_file(
          dir / "probe" / name,
          serialize_cache_entry(key, entry.outcomes, entry.outcomes.size()));
    }
  }
  result.gate(all_hit, "every cell's cache entry reads back as a hit");
  result.metric("analysis.cache_read_us",
                median(tracer.durations_ns("analysis.cache_read")) * 1e-3,
                "us");
  result.metric("analysis.cache_write_us",
                median(tracer.durations_ns("analysis.cache_write")) * 1e-3,
                "us");
}

}  // namespace

Result run_theorem_sweep(const Args& args, Tracer& tracer) {
  Result result;
  result.lanes = 1;
  result.workers = default_lanes();
  const unsigned workers = result.workers;

  if (!args.trace) {
    const std::vector<ExperimentCell> cells = build_cells(args.seed, false);
    std::vector<double> run_s;
    std::vector<double> rounds_per_s;
    std::vector<double> reps_per_s;
    std::vector<std::string> reports;
    timed_loop(args.seconds, [&] {
      const fs::path dir = fresh_dir(args, "cold");
      const SchedulerOptions opts = options(dir, workers);
      const SweepRun cold = run_sweep(cells, opts);
      warm_gate(cells, opts, cold, result);
      fs::remove_all(dir);
      const Totals t = count_reps(cells, cold.stats, result);
      run_s.push_back(cold.run_s);
      rounds_per_s.push_back(t.rounds / cold.run_s);
      reps_per_s.push_back(static_cast<double>(t.reps) / cold.run_s);
      reports.push_back(cold.report);
    });
    result.gate(
        std::all_of(reports.begin(), reports.end(),
                    [&](const std::string& r) { return r == reports[0]; }),
        "same-seed sweeps report identical statistics");
    // Peak memory of the gates and runs, read before the setup samples.
    const double peak_mb = peak_rss_mb();
    const double setup_s =
        median_setup_seconds([&] { return build_cells(args.seed, false); });
    result.metric("setup_s", setup_s, "s");
    result.metric("run_s", median(run_s), "s");
    result.metric("rounds_per_s", median(rounds_per_s), "1/s");
    result.metric("reps_per_s", median(reps_per_s), "1/s");
    result.metric("peak_rss_mb", peak_mb, "MB");
    result.correct = result.correct && result.failed == 0;
    return result;
  }

  // Traced run: an untraced cold sweep, then the traced one.
  const std::vector<ExperimentCell> plain_cells = build_cells(args.seed, false);
  const fs::path plain_dir = fresh_dir(args, "plain");
  const SweepRun plain = run_sweep(plain_cells, options(plain_dir, workers));
  fs::remove_all(plain_dir);
  count_reps(plain_cells, plain.stats, result);

  const std::vector<ExperimentCell> cells = build_cells(args.seed, true);
  std::vector<RepSlot> slots(cells.size() * kReps);
  const fs::path dir = fresh_dir(args, "traced");
  SchedulerOptions opts = options(dir, workers);
  opts.rep_hook = [&](std::size_t cell, std::uint64_t rep) {
    RepSlot& slot = slots[cell * kReps + rep];
    slot.start_ns = now_ns();
    slot.tid = static_cast<std::uint64_t>(gettid());
    current_slot = &slot;
  };
  SweepRun traced;
  std::int64_t sweep_id = Tracer::kNoParent;
  {
    const Tracer::Scope span(tracer, "analysis.sweep");
    sweep_id = span.id();
    traced = run_sweep(cells, opts);
  }
  current_slot = nullptr;  // the calling thread is one of the workers
  const Totals t = count_reps(cells, traced.stats, result);
  result.gate(traced.report == plain.report,
              "traced and untraced sweeps report identical statistics");
  {
    const Tracer::Scope span(tracer, "analysis.warm");
    result.metric("analysis.warm_reps_computed",
                  static_cast<double>(warm_gate(cells, opts, traced, result)),
                  "count");
  }

  std::uint64_t stamped = 0;
  double busy_ns = 0.0;
  std::int64_t last_start = 0;
  for (const RepSlot& s : slots) {
    if (s.start_ns == 0) continue;
    ++stamped;
    busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    last_start = std::max(last_start, s.start_ns);
    tracer.add("analysis.rep", s.start_ns, s.end_ns, sweep_id, s.tid);
  }
  result.gate(stamped == t.computed,
              "every computed repetition was stamped at start and end");
  const std::vector<double> rep = tracer.durations_ns("analysis.rep");
  result.metric("analysis.rep_ms.p50", quantile(rep, 0.5) * 1e-6, "ms");
  result.metric("analysis.rep_ms.p90", quantile(rep, 0.9) * 1e-6, "ms");
  result.metric("analysis.busy_frac",
                ratio(busy_ns, static_cast<double>(workers) *
                                   tracer.duration_ns(sweep_id)),
                "ratio");
  result.metric("analysis.tail_s",
                static_cast<double>(traced.end_ns - last_start) * 1e-9, "s");
  result.metric("analysis.warm_ms", tracer.total_ns("analysis.warm") * 1e-6,
                "ms");

  // One factory call per cell, serially: the per-repetition protocol build.
  for (const ExperimentCell& cell : plain_cells) {
    Rng init(cell.seed, kRepZeroInitStream);
    const Tracer::Scope span(tracer, "core.protocol_build");
    cell.make_protocol(init);
  }
  result.metric("core.protocol_build_ms",
                tracer.total_ns("core.protocol_build") * 1e-6, "ms");
  cache_probe(cells, dir, tracer, result);
  fs::remove_all(dir);

  result.metric("trace_overhead_frac", traced.run_s / plain.run_s - 1.0,
                "ratio");
  result.correct = result.correct && result.failed == 0;
  return result;
}

}  // namespace perfbench
