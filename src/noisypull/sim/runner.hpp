// Simulation run loop and convergence measurement (Definition 2).
//
// A run executes a protocol under an engine for a given number of rounds and
// reports when (if ever) the whole population — sources included — holds the
// correct opinion, and whether that consensus then persists through an
// optional stability window (the "remains with it" part of the paper's
// self-stabilizing convergence definition).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "noisypull/common/cancel.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/core/protocol.hpp"
#include "noisypull/push/push_engine.hpp"

namespace noisypull {

inline constexpr std::uint64_t kNever =
    std::numeric_limits<std::uint64_t>::max();

struct RunConfig {
  std::uint64_t h = 1;  // sample size of the PULL(h) model

  // Rounds to execute; 0 means "use protocol.planned_rounds()" (which must
  // then be non-zero).
  std::uint64_t max_rounds = 0;

  // Extra rounds executed after max_rounds during which consensus must hold
  // every round for the run to count as stable.  0 disables the check.
  std::uint64_t stability_window = 0;

  // Record, for every executed round, how many agents hold the correct
  // opinion (used by the boosting-trajectory experiment).
  bool record_trajectory = false;

  // Execution lanes for the engine's block-parallel round phase
  // (Engine::set_threads); 0 leaves the engine's current setting untouched.
  // Trajectory-invariant — only wall-clock changes.  Ignored by engines
  // without the knob (PushEngine, SequentialEngine).
  unsigned engine_threads = 0;

  // Polled once per round; when set, the run unwinds with
  // OperationCancelled.  Used by the scheduler's --rep-timeout watchdog.
  // Trajectory-invariant while unset: a run that completes was never
  // cancelled, so its statistics cannot depend on the token.
  const CancelToken* cancel = nullptr;
};

struct RunResult {
  bool all_correct_at_end = false;
  bool stable = false;  // meaningful only if stability_window > 0
  std::uint64_t rounds_run = 0;

  // First round index r such that all opinions were correct at the end of
  // every round from r through the end of the run (kNever if none).
  std::uint64_t first_all_correct = kNever;

  std::uint64_t correct_at_end = 0;       // # agents correct after last round
  std::vector<std::uint64_t> trajectory;  // per-round correct counts (opt-in)
};

// Number of agents currently holding `correct`.
std::uint64_t count_correct(const PullProtocol& protocol, Opinion correct);
std::uint64_t count_correct(const PushProtocol& protocol, Opinion correct);

// Builds a fresh protocol instance for one repetition.  `init_rng` must be
// used for all randomness of construction/corruption.
using ProtocolFactory =
    std::function<std::unique_ptr<PullProtocol>(Rng& init_rng)>;

// Executes the run.  `correct` is the ground-truth opinion the population
// must converge to (PopulationConfig::correct_opinion() in all experiments).
RunResult run(PullProtocol& protocol, Engine& engine, const NoiseMatrix& noise,
              Opinion correct, const RunConfig& cfg, Rng& rng);

// PUSH-model counterpart of run(); cfg.h is the per-sender fan-out.
RunResult run_push(PushProtocol& protocol, PushEngine& engine,
                   const NoiseMatrix& noise, Opinion correct,
                   const RunConfig& cfg, Rng& rng);

// Steady-state measurement for runs under ongoing perturbation (churn,
// runtime faults): perfect, permanent consensus is unattainable there, so
// the meaningful metric is the correct fraction once the dynamics has
// equilibrated.
struct SteadyStateResult {
  std::uint64_t rounds_run = 0;
  double mean_correct_fraction = 0.0;   // averaged over the measure window
  double min_correct_fraction = 1.0;    // worst round in the measure window
  double final_correct_fraction = 0.0;  // after the last round
};

// Invoked before every round (round index, run rng).  The churn runner
// injects per-round resets through this hook; fault experiments can add
// custom interventions.  Faults injected by a FaultyEngine need no hook —
// the engine decorator applies them inside step().
using RoundHook = std::function<void(std::uint64_t, Rng&)>;

// Runs `warmup + measure` rounds; statistics are taken over the final
// `measure` rounds (the steady state).  Requires measure >= 1.
SteadyStateResult measure_steady_state(PullProtocol& protocol, Engine& engine,
                                       const NoiseMatrix& noise,
                                       Opinion correct, Holdings h,
                                       std::uint64_t warmup,
                                       std::uint64_t measure, Rng& rng,
                                       const RoundHook& pre_round = {},
                                       const CancelToken* cancel = nullptr);

}  // namespace noisypull
