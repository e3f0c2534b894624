// Thin re-export: the automaton families live in core/automaton, next to
// the protocols they mirror (AutomatonProtocol is a PullProtocol).  This
// header keeps every oracle-side include site (theory/exact_chain users,
// the fuzz campaign, the golden-digest tests) compiling unchanged; theory/
// retains the exact-law half of the machinery — ChainClass and the chain
// builder in theory/exact_chain.hpp — which is what is genuinely
// oracle-specific.
#pragma once

#include "noisypull/core/automaton/automaton.hpp"          // IWYU pragma: export
#include "noisypull/core/automaton/protocol_automata.hpp"  // IWYU pragma: export
