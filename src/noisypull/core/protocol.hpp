// The protocol interface executed by the noisy PULL(h) engines.
//
// One round of the model (Section 1.3) is:
//   1. every agent chooses a message σ ∈ Σ to display,
//   2. every agent samples h agents uniformly at random with replacement,
//   3. every sampled message is corrupted independently by the noise matrix,
//   4. every agent updates its opinion and internal state.
// The engine owns steps 2–3; a PullProtocol implements steps 1 and 4.
//
// Updates receive the *count vector* of observed symbols rather than an
// ordered list.  This is without loss of generality for every protocol in
// the paper (SF, SSF, and all baselines aggregate observations by counting
// or majority), and it is what allows an O(n·|Σ|)-per-round engine.
//
// This header lives in core/ (base layer) rather than model/: the concrete
// protocols of core/ implement it and the engines of model/ consume it, so
// under the enforced layer DAG (DESIGN.md §8.1) the interface must sit at
// or below both.
#pragma once

#include <cstdint>

#include "noisypull/common/symbols.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

class PullProtocol {
 public:
  virtual ~PullProtocol() = default;

  // Size of the communication alphabet Σ (2 for SF, 4 for SSF).
  virtual std::size_t alphabet_size() const = 0;

  virtual std::uint64_t num_agents() const = 0;

  // Message displayed by `agent` at the start of round `round` (0-based).
  virtual Symbol display(std::uint64_t agent, std::uint64_t round) const = 0;

  // Delivers the noisy observations of one round.  In the fault-free model
  // obs.total() == h; fault decorators (fault/faulty_engine.hpp) may deliver
  // fewer — any total in [0, h] — when observations are dropped, so
  // implementations must not assume a full sample.  `rng` supplies the
  // agent's private coin tosses (tie-breaks etc.).
  //
  // Concurrency contract: the block-parallel engines (model/engine.hpp) call
  // update() for *different* agents concurrently within one round.
  // Implementations must therefore only write state owned by `agent` (its
  // own slot in per-agent arrays); reads of shared round-constant state
  // (parameters, the round number) are fine.  Every protocol in this repo
  // satisfies this naturally — agents are anonymous and only see their own
  // observation counts — but a protocol maintaining global mutable
  // statistics inside update() would need its own synchronization.
  virtual void update(std::uint64_t agent, std::uint64_t round,
                      const SymbolCounts& obs, Rng& rng) = 0;

  // The agent's current output opinion Y^(agent).
  virtual Opinion opinion(std::uint64_t agent) const = 0;

  // Number of rounds the protocol is designed to run, or 0 if it has no
  // intrinsic horizon (self-stabilizing and baseline protocols).
  virtual std::uint64_t planned_rounds() const { return 0; }
};

}  // namespace noisypull
