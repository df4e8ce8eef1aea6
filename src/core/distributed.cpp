#include "core/distributed.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace radio {

std::string ElsasserGasieniecBroadcast::name() const {
  return options_.tail_includes_late_informed
             ? "elsasser-gasieniec[all-informed-tail]"
             : "elsasser-gasieniec";
}

void ElsasserGasieniecBroadcast::reset(const ProtocolContext& ctx) {
  RADIO_EXPECTS(ctx.n >= 2);
  RADIO_EXPECTS(ctx.p > 0.0 && ctx.p <= 1.0);
  ctx_ = ctx;
  const double n = static_cast<double>(ctx.n);
  const double d = ctx.expected_degree();
  RADIO_EXPECTS(d > 1.0);

  // D = ln n / ln d, rounded to the nearest round, at least 1.
  const double ratio = std::log(n) / std::log(d);
  switch_round_ = static_cast<std::uint32_t>(std::max(1.0, std::round(ratio)));

  // n / d^D, clamped into (0, 1]: with D ≈ log_d n this is about n/d when D
  // overshoots by one layer, and 1 when d^D ≈ n.
  const double kick = n / std::pow(d, static_cast<double>(switch_round_));
  kickoff_probability_ = std::min(1.0, std::max(kick, 1.0 / n));

  tail_probability_ = std::min(1.0, options_.selective_rate_scale / d);
  tail_knowers_.clear();
}

double ElsasserGasieniecBroadcast::transmit_probability(
    std::uint32_t round) const noexcept {
  if (round < switch_round_) return 1.0;
  if (round == switch_round_) return kickoff_probability_;
  return tail_probability_;
}

void ElsasserGasieniecBroadcast::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng& rng,
    std::vector<NodeId>& out) {
  const double prob = transmit_probability(round);
  if (round <= switch_round_ || options_.tail_includes_late_informed) {
    session.for_each_informed([&](NodeId v) {
      if (prob >= 1.0 || rng.bernoulli(prob)) out.push_back(v);
    });
    return;
  }
  // The paper's tail: only rounds-1…D knowers transmit.
  if (tail_knowers_.empty()) {
    session.for_each_informed([&](NodeId v) {
      if (session.informed_round(v) <= switch_round_)
        tail_knowers_.push_back(v);
    });
  }
  for (const NodeId v : tail_knowers_)
    if (prob >= 1.0 || rng.bernoulli(prob)) out.push_back(v);
}

}  // namespace radio
