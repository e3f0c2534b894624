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
// The engines drive a protocol through three bulk methods — display_all(),
// update_block() and count_opinion() — whose defaults are the per-agent
// loops over display(), update() and opinion().  A protocol overrides them
// only to do the same work in fewer calls (SourceFilter classifies the round
// once per block instead of once per agent); the result must equal the
// per-agent loop bit for bit, RNG draws included (tests/
// test_protocol_bulk.cpp holds every protocol in src/ to that).
//
// Decorators that rewrite per-agent behaviour (fault/faulty_engine.cpp's
// FaultedProtocolView forges displays and thins or stalls updates one agent
// at a time) must NOT forward display_all() or update_block() to the
// wrapped protocol: the forwarded bulk call would bypass the decorator's
// own display()/update().  Keeping the defaults routes every agent through
// the decorator.  count_opinion() may forward when opinion() does.
//
// This header lives in core/ (base layer) rather than model/: the concrete
// protocols of core/ implement it and the engines of model/ consume it, so
// under the enforced layer DAG (DESIGN.md §8.1) the interface must sit at
// or below both.
#pragma once

#include <cstdint>

#include "noisypull/common/symbols.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/rng/observation_cache.hpp"
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

  // Bulk display: out[i] = display(i, round) for every agent i in [0, n).
  // `out` holds num_agents() symbols.  Called serially, once per round.
  virtual void display_all(std::uint64_t round, Symbol* out) const {
    const std::uint64_t n = num_agents();
    for (std::uint64_t i = 0; i < n; ++i) out[i] = display(i, round);
  }

  // Bulk update of agents [begin, end): for each i in order, draw i's
  // observation counts from law.of(i) and deliver them to update(i, ...),
  // all on the one block rng — the same draws, in the same order, as the
  // per-agent loop below, which is the default.
  //
  // Concurrency contract: the block-parallel engines call update_block()
  // concurrently on disjoint [begin, end) ranges of one round, so an
  // override may write only the state of agents in its own range (the
  // update() contract above, lifted to blocks).  Reads of round-constant
  // state are fine.
  virtual void update_block(std::uint64_t begin, std::uint64_t end,
                            std::uint64_t round, const ObservationLaw& law,
                            Rng& rng) {
    SymbolCounts obs(alphabet_size());
    for (std::uint64_t i = begin; i < end; ++i) {
      obs.clear();
      law.of(i).sample(rng, obs);
      update(i, round, obs, rng);
    }
  }

  // Number of agents whose opinion() equals `o`.
  virtual std::uint64_t count_opinion(Opinion o) const {
    std::uint64_t count = 0;
    const std::uint64_t n = num_agents();
    for (std::uint64_t i = 0; i < n; ++i) count += opinion(i) == o ? 1 : 0;
    return count;
  }
};

}  // namespace noisypull
