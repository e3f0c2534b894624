#include "noisypull/model/engine.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <span>

#include "noisypull/common/check.hpp"
#include "noisypull/common/thread_pool.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {

Engine::Engine() = default;
Engine::~Engine() = default;  // out of line: ~unique_ptr<ThreadPool> needs
                              // the complete type

void Engine::set_threads(unsigned lanes) {
  NOISYPULL_CHECK(lanes >= 1, "engine needs at least one lane");
  lanes_ = lanes;
  if (lanes == 1) {
    pool_.reset();
  } else if (!pool_ || pool_->lanes() != lanes) {
    pool_ = std::make_unique<ThreadPool>(lanes);
  }
}

void Engine::for_each_block(std::uint64_t n, std::uint64_t round_key,
                            const BlockBody& body) {
  const std::uint64_t blocks = (n + kBlockSize - 1) / kBlockSize;
  const auto run_block = [&](std::uint64_t b) {
    // Counter substream: a function of (round_key, b) only — never of the
    // lane that happens to execute the block — so serial and pooled
    // execution realize identical trajectories.
    Rng block_rng(round_key, b);
    const std::uint64_t begin = b * kBlockSize;
    const std::uint64_t end = std::min(n, begin + kBlockSize);
    body(begin, end, block_rng);
  };
  if (!pool_ || blocks <= 1) {
    for (std::uint64_t b = 0; b < blocks; ++b) run_block(b);
    return;
  }
  pool_->parallel_for(blocks, run_block);
}

std::array<std::uint64_t, kMaxAlphabet> Engine::display_histogram(
    const PullProtocol& protocol, std::uint64_t round) {
  const std::size_t d = protocol.alphabet_size();
  displays_.resize(protocol.num_agents());
  protocol.display_all(round, displays_.data());
  absorb_round(round);
  for (const Symbol s : displays_) {
    NOISYPULL_ASSERT(s < d);
    absorb_display(s);
  }
  // Counted apart from the FNV chain: an increment of c[s] in that loop is
  // a second serial chain, through memory, and the slower of the two.
  std::array<std::uint64_t, kMaxAlphabet> c{};
  for (std::size_t s = 0; s < d; ++s) {
    c[s] = count_equal(displays_, static_cast<Symbol>(s));
  }
  return c;
}

void ExactEngine::set_artificial_noise(std::optional<Matrix> p) {
  if (p) {
    artificial_.emplace(std::move(*p));
  } else {
    artificial_.reset();
  }
}

void ExactEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                       Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  // Snapshot displays: all messages of a round are chosen before any
  // observation of that round is delivered (model step 1 precedes step 4).
  // Serial, in agent-index order — this is the digest-absorbing phase.
  display_histogram(protocol, round);
  const Symbol* snapshot = displays().data();

  // Sampling + update phase: reads the frozen display snapshot, writes only
  // per-agent protocol state — block-parallel on counter substreams.
  const std::uint64_t round_key = rng.next();
  for_each_block(
      n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
        SymbolCounts obs(d);
        for (std::uint64_t i = begin; i < end; ++i) {
          obs.clear();
          for (std::uint64_t k = 0; k < h; ++k) {
            const std::uint64_t j =
                brng.next_below(n);  // with replacement; may be i
            Symbol received = noise.corrupt(snapshot[j], brng);
            if (artificial_) received = artificial_->corrupt(received, brng);
            ++obs[received];
          }
          protocol.update(i, round, obs, brng);
        }
      });
}

AggregateEngine::AggregateEngine(std::vector<NoiseMatrix> per_agent)
    : per_agent_(std::move(per_agent)) {
  NOISYPULL_CHECK(!per_agent_.empty(), "need at least one noise matrix");
  const std::size_t d = per_agent_.front().alphabet_size();
  for (const auto& m : per_agent_) {
    NOISYPULL_CHECK(m.alphabet_size() == d,
                    "per-agent noise matrices must share one alphabet");
  }
}

void AggregateEngine::set_artificial_noise(std::optional<Matrix> p) {
  artificial_ = std::move(p);
  group_of_.clear();  // per-agent channels are regrouped on the next step
}

double AggregateEngine::worst_upper_bound() const noexcept {
  double worst = 0.0;
  for (const auto& m : per_agent_) {
    worst = std::max(worst, m.tightest_upper_bound());
  }
  return worst;
}

Matrix AggregateEngine::effective_channel(const Matrix& m) const {
  return artificial_ ? m * *artificial_ : m;
}

void AggregateEngine::group_per_agent_channels() {
  // Deduplicate bit-identical effective channels so agents with the same
  // matrix share one per-round sampler.  Ordered map: group ids must not
  // depend on hash iteration order (and unordered containers are lint-banned
  // on simulation paths).
  std::map<std::vector<double>, std::uint32_t> ids;
  group_of_.resize(per_agent_.size());
  group_channels_.clear();
  group_sizes_.clear();
  for (std::size_t i = 0; i < per_agent_.size(); ++i) {
    const auto [it, inserted] =
        ids.emplace(effective_channel(per_agent_[i].matrix()).data(),
                    static_cast<std::uint32_t>(ids.size()));
    if (inserted) {
      group_channels_.insert(group_channels_.end(), it->first.begin(),
                             it->first.end());
      group_sizes_.push_back(0);
    }
    group_of_[i] = it->second;
    ++group_sizes_[static_cast<std::size_t>(it->second)];
  }
}

void AggregateEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                           Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  const bool shared = per_agent_.empty();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(shared || per_agent_.size() == n,
                  "need exactly one noise matrix per agent");
  NOISYPULL_CHECK(shared || per_agent_.front().alphabet_size() == d,
                  "per-agent noise alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  const auto c = display_histogram(protocol, round);
  if (shared) {
    // The step's channel may differ every round (noise bursts), so the one
    // group is rebuilt per step.
    group_channels_ = effective_channel(noise.matrix()).data();
    group_sizes_.assign(1, n);
  } else if (group_of_.empty()) {
    group_per_agent_channels();
  }

  // One observation is distributed as: pick a displayed symbol σ with
  // probability c[σ]/n, then corrupt through the group's effective channel.
  // So q_g[σ'] ∝ Σ_σ c[σ]·channel_g(σ,σ').  One sampler per group per
  // round, built serially before the parallel phase and read-only during
  // it; its draw count is the group's size, which lets the sampler skip
  // table construction when the outcome space would not amortize over it
  // (amortization gate, rng/observation_cache.hpp).
  samplers_.resize(group_sizes_.size());
  std::array<double, kMaxAlphabet> q{};
  for (std::size_t g = 0; g < group_sizes_.size(); ++g) {
    const double* channel = &group_channels_[g * d * d];
    for (std::size_t to = 0; to < d; ++to) {
      double w = 0.0;
      for (std::size_t from = 0; from < d; ++from) {
        w += static_cast<double>(c[from]) * channel[from * d + to];
      }
      q[to] = w;
    }
    samplers_[g].reset(h, std::span<const double>(q.data(), d),
                       sampler_cache(), group_sizes_[g]);
  }

  // The round's observation law, handed to the protocol one block at a
  // time: the shared mode's null group_of keeps every agent on one sampler
  // without touching per_agent_ per agent.
  const ObservationLaw law{samplers_.data(),
                           shared ? nullptr : group_of_.data()};
  const std::uint64_t round_key = rng.next();
  for_each_block(n, round_key,
                 [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
                   protocol.update_block(begin, end, round, law, brng);
                 });
}

void SequentialEngine::set_artificial_noise(std::optional<Matrix> p) {
  artificial_ = std::move(p);
}

void SequentialEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                            Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  auto c = display_histogram(protocol, round);

  Matrix channel = noise.matrix();
  if (artificial_) channel = channel * *artificial_;

  perm_.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) perm_[i] = i;
  switch (order_) {
    case Order::Random:
      for (std::uint64_t i = n; i > 1; --i) {  // Fisher–Yates
        std::swap(perm_[i - 1], perm_[rng.next_below(i)]);
      }
      break;
    case Order::FixedAscending:
      break;
    case Order::FixedDescending:
      for (std::uint64_t i = 0; i < n / 2; ++i) {
        std::swap(perm_[i], perm_[n - 1 - i]);
      }
      break;
  }

  SymbolCounts obs(d);
  std::array<double, kMaxAlphabet> q{};
  for (std::uint64_t idx = 0; idx < n; ++idx) {
    const std::uint64_t agent = perm_[idx];
    // Observation law against the *current* display histogram.
    for (std::size_t to = 0; to < d; ++to) {
      double w = 0.0;
      for (std::size_t from = 0; from < d; ++from) {
        w += static_cast<double>(c[from]) * channel(from, to);
      }
      q[to] = w;
    }
    obs.clear();
    sample_multinomial(rng, h, std::span<const double>(q.data(), d),
                       std::span<std::uint64_t>(obs.c.data(), d));
    // Update immediately; keep the histogram in sync with display changes.
    const Symbol before = protocol.display(agent, round);
    protocol.update(agent, round, obs, rng);
    const Symbol after = protocol.display(agent, round);
    if (after != before) {
      NOISYPULL_ASSERT(c[before] > 0);
      --c[before];
      ++c[after];
    }
  }
}

}  // namespace noisypull
