// THM4-D — noise dependence of Theorem 4: the dominant term of Eq. 19 grows
// as δ/(1−2δ)², diverging as δ → 1/2.  We sweep δ for uniform noise and
// also run three *non-uniform* (δ-upper-bounded) channels through the
// Theorem 8 reduction to show the same protocol handles them.
//
// Both tables' cells share one experiment-scheduler queue
// (analysis/scheduler.hpp) with the usual `--threads` / `--ci-halfwidth` /
// `--cache-dir` flags.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace noisypull;
  using namespace noisypull::bench;
  const auto args = BenchArgs::parse(argc, argv);

  header("THM4-D / tab_thm4_scaling_delta",
         "Theorem 4: T grows like delta/(1-2delta)^2; delta-upper-bounded "
         "noise reduces to f(delta)-uniform noise (Theorem 8) and converges "
         "too.");

  const std::uint64_t n = 4096;
  const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};

  const std::vector<double> deltas = {0.0,  0.05, 0.1,  0.15, 0.2,
                                      0.25, 0.3,  0.35, 0.4,  0.45};
  struct Channel {
    const char* name;
    Matrix m;
  };
  const Channel channels[] = {
      {"asymmetric mild", Matrix{0.95, 0.05, 0.15, 0.85}},
      {"asymmetric strong", Matrix{0.9, 0.1, 0.3, 0.7}},
      {"one-sided", Matrix{1.0, 0.0, 0.25, 0.75}},
  };

  // One queue for both tables: the uniform sweep first, then the reduced
  // non-uniform channels (their cells carry artificial noise, which the
  // scheduler folds into engines and cache keys alike).
  std::vector<ExperimentCell> cells;
  for (double delta : deltas) {
    cells.push_back(ExperimentCell{
        .label = "delta=" + std::to_string(delta),
        .make_protocol = sf_factory(pop, Holdings{n}, Delta{delta}),
        .noise = NoiseMatrix::uniform(2, delta),
        .correct = pop.correct_opinion(),
        .cfg = RunConfig{.h = n},
        .seed = 3000 + static_cast<std::uint64_t>(delta * 100),
        .protocol_digest = sf_digest(pop, Holdings{n}, Delta{delta})});
  }
  struct Reduced {
    double tightest;
    double delta_prime;
  };
  std::vector<Reduced> reduced_info;
  for (const auto& ch : channels) {
    const NoiseMatrix raw(ch.m);
    const auto red = reduce_to_uniform(raw);
    reduced_info.push_back({raw.tightest_upper_bound(), red.delta_prime});
    cells.push_back(ExperimentCell{
        .label = std::string("channel ") + ch.name,
        .make_protocol = sf_factory(pop, Holdings{n}, Delta{red.delta_prime}),
        .noise = raw,
        .correct = pop.correct_opinion(),
        .cfg = RunConfig{.h = n},
        .seed = 4000,
        .protocol_digest = sf_digest(pop, Holdings{n}, Delta{red.delta_prime}),
        .artificial_noise = red.artificial});
  }
  const auto stats = run_experiment(cells, scheduler_options(args, 8));

  Table table({"delta", "success", "rounds T", "first-correct",
               "T/(d/(1-2d)^2 + c)"});
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const double delta = deltas[i];
    const double t = stats[i].mean_rounds_run;
    const double shape =
        delta / ((1 - 2 * delta) * (1 - 2 * delta)) + 1.0;  // +1: log n floor
    table.cell(delta, 2)
        .cell(stats[i].success_rate, 2)
        .cell(t, 0)
        .cell(stats[i].mean_convergence_round, 1)
        .cell(t / shape, 1)
        .end_row();
  }
  args.emit(table, "_uniform");

  // Non-uniform channels handled via the Theorem 8 reduction: agents apply
  // the artificial noise P, and SF is tuned to the composed level f(δ).
  Table reduced({"channel", "tightest delta", "f(delta)", "success",
                 "rounds T"});
  for (std::size_t c = 0; c < std::size(channels); ++c) {
    const auto& st = stats[deltas.size() + c];
    reduced.cell(channels[c].name)
        .cell(reduced_info[c].tightest, 3)
        .cell(reduced_info[c].delta_prime, 3)
        .cell(st.success_rate, 2)
        .cell(st.mean_rounds_run, 0)
        .end_row();
  }
  args.emit(reduced, "_reduced");
  std::printf(
      "expected shape: T/(d/(1-2d)^2 + c) roughly flat across delta; the\n"
      "reduced non-uniform channels succeed like their uniform equivalents.\n");
  return 0;
}
