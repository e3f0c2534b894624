// Cooperative transport by "crazy ants" (Paratrechina longicornis).
//
// The paper's motivating scenario (§1.1): a group of ants carries a food
// load; each carrier senses the *cumulative* force of all carriers through
// the object — a noisy observation of the whole population, i.e. the noisy
// PULL(h) model with h ≈ n.  Occasionally a single informed ant joins and
// must steer the group toward the nest.  The question the paper answers:
// can one informed ant redirect the whole group *quickly*?
//
// This example maps the scenario onto the library:
//   * opinion 1 = "pull toward the nest", opinion 0 = "pull away";
//   * the informed ant is a single source with preference 1;
//   * force sensing is a PULL(h) observation with h = group size;
//   * δ models mechanical/sensory noise in reading the load's motion.
// We compare the SF strategy against the voter-style dynamics (each ant
// aligns with a random sensed force contribution, the Gelblum et al. model)
// for growing group sizes, printing rounds-to-alignment for each.
//
// Build & run:  ./build/examples/crazy_ants
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

#include "noisypull/noisypull.hpp"

namespace {

using namespace noisypull;

// Mean round from which the whole group pulls toward the nest, over 8
// seeded repetitions; empty when no repetition ever aligned.  A zero
// budget runs the protocol's planned horizon.
std::optional<double> mean_alignment_rounds(const PopulationConfig& pop,
                                            ProtocolFactory make_protocol,
                                            double delta, std::uint64_t seed,
                                            std::uint64_t budget) {
  const ExperimentCell cell{.make_protocol = std::move(make_protocol),
                            .noise = NoiseMatrix::uniform(2, delta),
                            .correct = pop.correct_opinion(),
                            .cfg = RunConfig{.h = pop.n, .max_rounds = budget},
                            .seed = seed};
  return run_experiment({cell},
                        SchedulerOptions{.stop = StopRule{.max_reps = 8}})
      .front()
      .mean_convergence_round;
}

}  // namespace

int main() {
  using namespace noisypull;
  const double delta = 0.2;  // sensing noise

  std::printf("Cooperative transport: one informed ant steering the group\n");
  std::printf("(sensing = noisy PULL(h=n), delta = %.2f; voter = align with\n"
              " a random sensed contribution, SF = listen-then-boost)\n\n",
              delta);

  Table table({"ants", "SF rounds to alignment", "voter rounds (budgeted)",
               "voter aligned?"});
  for (std::uint64_t n : {50ULL, 100ULL, 200ULL, 400ULL, 800ULL}) {
    const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
    const std::optional<double> sf_rounds = mean_alignment_rounds(
        pop,
        [pop, delta](Rng&) -> std::unique_ptr<PullProtocol> {
          return std::make_unique<SourceFilter>(pop, Holdings{pop.n},
                                                Delta{delta}, C1{2.0});
        },
        delta, 11 + n, /*budget=*/0);
    // Give the voter dynamics a generous budget of 20·n rounds.
    const std::optional<double> voter_rounds = mean_alignment_rounds(
        pop,
        [pop](Rng& init) -> std::unique_ptr<PullProtocol> {
          return std::make_unique<VoterProtocol>(pop, init);
        },
        delta, 13 + n, 20 * n);
    table.cell(n)
        .cell(sf_rounds, 1)
        .cell(voter_rounds, 1)  // "never" when no repetition aligned
        .cell(voter_rounds ? "sometimes" : "no")
        .end_row();
  }
  table.print(std::cout);
  std::printf("\nSF alignment time grows ~logarithmically with group size;\n"
              "the voter-style dynamics does not reliably follow the single\n"
              "informed ant — matching the paper's message that sensing the\n"
              "average tendency (large h) makes fast steering possible.\n");
  return 0;
}
