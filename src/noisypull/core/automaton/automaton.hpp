// core/automaton — finite per-agent state machines as first-class objects.
//
// AgentAutomaton is the exact view of one agent: a finite state set with an
// exact per-(state, observation) transition *law*.  transition(state, round,
// obs) returns the probability law of the next state, with protocol coin
// tosses as probability splits.  Three consumers share it:
//
//  * theory/exact_chain (the oracle) enumerates the laws exactly,
//  * sim/lumped_engine advances whole-population state histograms,
//  * AutomatonProtocol (protocol_automata.hpp) samples one agent's next
//    state from the law, so the Monte-Carlo engines run the same dynamics
//    the oracle enumerates.
#pragma once

#include <cstdint>
#include <vector>

#include "noisypull/common/symbols.hpp"

namespace noisypull {

// Identifier of one per-agent automaton state.  Automata intern their own
// state encodings; consumers only need equality and ordering.
using AutomatonState = std::uint32_t;

struct WeightedState {
  AutomatonState state = 0;
  double prob = 0.0;
};

// A finite per-agent state machine: the exact counterpart of one agent's
// PullProtocol slice.  display() must match PullProtocol::display for the
// agent's role and transition() must return the *exact* distribution of the
// next state given one delivered observation batch (protocol coin tosses
// become probability splits).  Implementations live in
// core/automaton/protocol_automata.hpp.
//
// Thread-safety contract: interning automata (SF/SSF mirrors) are called
// from the engines' block-parallel update phase through
// AutomatonProtocol::update, so transition() must be internally
// synchronized (the mirrors guard their intern tables with a mutex).  The
// *ids* handed out then depend on call interleaving, which is harmless:
// every observable — display, opinion, transition law — is a function of
// the interned concrete state, never of the id.
class AgentAutomaton {
 public:
  virtual ~AgentAutomaton() = default;

  virtual std::size_t alphabet_size() const = 0;
  virtual Symbol display(AutomatonState state, std::uint64_t round) const = 0;
  virtual std::vector<WeightedState> transition(
      AutomatonState state, std::uint64_t round,
      const SymbolCounts& obs) const = 0;

  // Opinion an agent in `state` reports — the PullProtocol::opinion
  // counterpart, needed wherever convergence is judged from automaton states
  // (AutomatonProtocol, sim/lumped_engine).  The default matches the
  // TableAutomaton fuzz family's encoding (opinion = low state bit); the
  // SF/SSF mirrors override it to read the interned `current` field.
  virtual Opinion opinion(AutomatonState state) const {
    return static_cast<Opinion>(state & 1);
  }
};

}  // namespace noisypull
