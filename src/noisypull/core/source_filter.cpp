#include "noisypull/core/source_filter.hpp"

#include <algorithm>

#include "noisypull/common/check.hpp"

namespace noisypull {

SourceFilter::SourceFilter(const PopulationConfig& pop, Holdings h,
                           Delta delta, C1 c1)
    : SourceFilter(pop, make_sf_schedule(pop, h, delta, c1)) {}

SourceFilter::SourceFilter(const PopulationConfig& pop, SfSchedule schedule)
    : pop_(pop),
      schedule_(schedule),
      counter1_(pop.n),
      counter0_(pop.n),
      boost_ones_(pop.n),
      boost_total_(pop.n),
      weak_(pop.n),
      current_(pop.n) {
  pop_.validate();
}

Symbol SourceFilter::nonsource_listen_display(std::uint64_t /*agent*/,
                                              std::uint64_t round) const {
  // Phase 0 → display 0; Phase 1 → display 1.
  return round < schedule_.phase_rounds ? Symbol{0} : Symbol{1};
}

Symbol SourceFilter::display(std::uint64_t agent, std::uint64_t round) const {
  if (round < schedule_.boosting_start()) {
    if (pop_.is_source(agent)) return pop_.source_preference(agent);
    return nonsource_listen_display(agent, round);
  }
  return current_[agent];
}

void SourceFilter::display_all(std::uint64_t round, Symbol* out) const {
  if (round < schedule_.boosting_start()) {
    // Listening: non-sources go through the virtual per-agent display,
    // which the ablation variants override.
    for (std::uint64_t i = 0; i < pop_.n; ++i) {
      out[i] = pop_.is_source(i) ? pop_.source_preference(i)
                                 : nonsource_listen_display(i, round);
    }
    return;
  }
  std::copy(current_.begin(), current_.end(), out);
}

void SourceFilter::finish_listening(std::uint64_t agent, Rng& rng) {
  if (counter1_[agent] > counter0_[agent]) {
    weak_[agent] = 1;
  } else if (counter1_[agent] < counter0_[agent]) {
    weak_[agent] = 0;
  } else {
    weak_[agent] = rng.next_bool() ? 1 : 0;
  }
  current_[agent] = weak_[agent];
  boost_ones_[agent] = 0;
  boost_total_[agent] = 0;
}

void SourceFilter::finish_subphase(std::uint64_t agent, Rng& rng) {
  const std::uint64_t ones = boost_ones_[agent];
  const std::uint64_t zeros = boost_total_[agent] - ones;
  if (ones > zeros) {
    current_[agent] = 1;
  } else if (ones < zeros) {
    current_[agent] = 0;
  } else {
    current_[agent] = rng.next_bool() ? 1 : 0;
  }
  boost_ones_[agent] = 0;
  boost_total_[agent] = 0;
}

bool SourceFilter::is_subphase_end(std::uint64_t round) const noexcept {
  const std::uint64_t start = schedule_.boosting_start();
  if (round < start) return false;
  const std::uint64_t short_span =
      schedule_.num_subphases * schedule_.subphase_rounds;
  const std::uint64_t off = round - start;
  if (off < short_span) {
    return (off + 1) % schedule_.subphase_rounds == 0;
  }
  return off + 1 == short_span + schedule_.final_rounds;
}

SourceFilter::RoundClass SourceFilter::classify(
    std::uint64_t round) const noexcept {
  if (round < schedule_.phase_rounds) return RoundClass::Listen0;
  const std::uint64_t start = schedule_.boosting_start();
  if (round < start) {
    return round + 1 == start ? RoundClass::LastListen1 : RoundClass::Listen1;
  }
  if (round >= schedule_.total_rounds()) return RoundClass::Done;
  return is_subphase_end(round) ? RoundClass::SubphaseEnd : RoundClass::Boost;
}

// The one transition body: update() and update_block() both end here.
// obs is binary: update() checks it, and update_block() draws into a binary
// buffer that ObservationSampler::sample() checks against the law.
inline void SourceFilter::apply(RoundClass k, std::uint64_t agent,
                                const SymbolCounts& obs, Rng& rng) {
  switch (k) {
    case RoundClass::Listen0:
      counter1_[agent] += obs[1];
      return;
    case RoundClass::Listen1:
      counter0_[agent] += obs[0];
      return;
    case RoundClass::LastListen1:
      counter0_[agent] += obs[0];
      finish_listening(agent, rng);
      return;
    case RoundClass::Boost:
      boost_ones_[agent] += obs[1];
      boost_total_[agent] += obs[0] + obs[1];
      return;
    case RoundClass::SubphaseEnd:
      boost_ones_[agent] += obs[1];
      boost_total_[agent] += obs[0] + obs[1];
      finish_subphase(agent, rng);
      return;
    case RoundClass::Done:
      return;
  }
}

void SourceFilter::update(std::uint64_t agent, std::uint64_t round,
                          const SymbolCounts& obs, Rng& rng) {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  apply(classify(round), agent, obs, rng);
}

void SourceFilter::update_block(std::uint64_t begin, std::uint64_t end,
                                std::uint64_t round,
                                const ObservationLaw& law, Rng& rng) {
  // update()'s checks, once per block: the range is in the population, and
  // the binary buffer below is checked against each sampler's alphabet by
  // ObservationSampler::sample() on every draw.
  NOISYPULL_CHECK(begin <= end && end <= pop_.n, "agent index out of range");
  const RoundClass k = classify(round);
  SymbolCounts obs(2);
  for (std::uint64_t i = begin; i < end; ++i) {
    obs.clear();
    law.of(i).sample(rng, obs);
    apply(k, i, obs, rng);
  }
}

Opinion SourceFilter::opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return current_[agent];
}

std::uint64_t SourceFilter::count_opinion(Opinion o) const {
  return count_equal(current_, o);
}

Opinion SourceFilter::weak_opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return weak_[agent];
}

std::uint64_t SourceFilter::counter1(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return counter1_[agent];
}

std::uint64_t SourceFilter::counter0(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return counter0_[agent];
}

}  // namespace noisypull
