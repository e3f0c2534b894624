// The workloads of the benchmark (see README.md for why each exists).
// Each runs its correctness gates first, then its timed loop, and returns
// end-to-end metrics (untraced) or per-layer metrics (traced).
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "noisypull/sim/runner.hpp"

namespace perfbench {

// One timed run of the agent or lumped workloads.
struct RunOutcome {
  noisypull::RunResult result;
  std::uint64_t digest = 0;  // the engine's replay digest at the end
  double run_s = 0.0;
};

// The run ended in, and held, all-correct consensus.
inline bool converged(const noisypull::RunResult& r) {
  return r.all_correct_at_end && r.first_all_correct != noisypull::kNever;
}

using Workload = Result (*)(const Args&, Tracer&);

Result run_sf_agent_1e5(const Args& args, Tracer& tracer);
Result run_sf_agent_1e6(const Args& args, Tracer& tracer);
Result run_theorem_sweep(const Args& args, Tracer& tracer);
Result run_lumped_sf(const Args& args, Tracer& tracer);

}  // namespace perfbench
