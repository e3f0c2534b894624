// Alphabet and observation primitives shared by every layer.
//
// These types used to live in model/types.hpp and noise/noise_matrix.hpp,
// which forced rng/ (the observation sampler needs SymbolCounts) to include
// model/ — an upward edge in the layer DAG the tree-aware linter now
// enforces (tools/noisypull_lint.cpp, `layering` rule; DESIGN.md §8.1).
// They are pure value vocabulary with no behavior of their own, so they
// belong in the base layer.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <span>

#include "noisypull/common/check.hpp"

namespace noisypull {

// A message symbol σ ∈ Σ.  Alphabets in this library are index sets
// {0, ..., size-1}; protocols define the meaning of each index (for SSF,
// symbol = first_bit*2 + second_bit).
using Symbol = std::uint8_t;

inline constexpr std::size_t kMaxAlphabet = 8;

// A binary opinion (the paper's Y^(i) ∈ {0,1}).
using Opinion = std::uint8_t;

// Per-symbol observation tallies an agent receives in one round (or phase).
// All protocols in the paper are functions of these counts only, which is
// what makes the aggregate engine exact (see model/engine.hpp).
struct SymbolCounts {
  std::array<std::uint64_t, kMaxAlphabet> c{};
  std::size_t size = 0;

  explicit SymbolCounts(std::size_t alphabet = 2) : size(alphabet) {
    NOISYPULL_CHECK(alphabet >= 2 && alphabet <= kMaxAlphabet,
                    "unsupported alphabet size");
  }

  std::uint64_t operator[](std::size_t s) const noexcept { return c[s]; }
  std::uint64_t& operator[](std::size_t s) noexcept { return c[s]; }

  std::uint64_t total() const noexcept {
    return std::accumulate(c.begin(), c.begin() + size, std::uint64_t{0});
  }

  void clear() noexcept { c.fill(0); }
};

// Number of entries of v equal to s.  Fixed 128-entry chunks with a
// byte-wide tally: a constant trip count that fills whole vectors is what
// GCC's -O2 vectorizer accepts, and a chunk's tally (<= 128) cannot
// overflow its byte.
inline std::uint64_t count_equal(std::span<const std::uint8_t> v,
                                 std::uint8_t s) noexcept {
  constexpr std::size_t kChunk = 128;
  const std::size_t n = v.size();
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + kChunk <= n; i += kChunk) {
    std::uint8_t chunk = 0;
    for (std::size_t j = 0; j < kChunk; ++j) {
      chunk = static_cast<std::uint8_t>(chunk + (v[i + j] == s ? 1 : 0));
    }
    count += chunk;
  }
  for (; i < n; ++i) count += v[i] == s ? 1 : 0;
  return count;
}

}  // namespace noisypull
