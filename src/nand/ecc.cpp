#include "nand/ecc.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

namespace pofi::nand {

namespace {

/// Codewords per page for a given codeword size (>= 1).
std::uint64_t codewords_in_page(std::uint64_t page_bits, std::uint64_t codeword_bits) {
  return std::max<std::uint64_t>(1, page_bits / codeword_bits);
}

/// P(Poisson(lambda) <= k), in log space to survive large lambda.
double poisson_cdf_impl(std::uint32_t k, double lambda) {
  if (lambda <= 0.0) return 1.0;
  // Far-tail shortcut: the mass below k is negligible.
  if (lambda > k + 12.0 * std::sqrt(lambda) + 30.0) return 0.0;
  double sum = 0.0;
  const double log_lambda = std::log(lambda);
  for (std::uint32_t i = 0; i <= k; ++i) {
    const double log_term = -lambda + i * log_lambda - std::lgamma(static_cast<double>(i) + 1.0);
    sum += std::exp(log_term);
  }
  return std::min(1.0, sum);
}

/// Success probability that all codewords decode when `errors` raw errors
/// land uniformly in `n_cw` codewords, each correcting up to `t`.
double all_codewords_ok_probability(std::uint32_t t, std::uint64_t n_cw, std::uint64_t errors) {
  if (errors == 0) return 1.0;
  if (n_cw == 1) return errors <= t ? 1.0 : 0.0;
  const double lambda = static_cast<double>(errors) / static_cast<double>(n_cw);
  const double per_cw = poisson_cdf_impl(t, lambda);
  if (per_cw <= 0.0) return 0.0;
  return std::exp(static_cast<double>(n_cw) * std::log(per_cw));
}

/// Exact small-count path: throw each error into a uniformly random codeword
/// and check the max occupancy against t. Deterministic given the rng.
constexpr std::uint64_t kExactThreshold = 192;  // errors below this use exact path

bool exact_assignment_ok(std::uint32_t t, std::uint64_t n_cw, std::uint64_t errors,
                         sim::Rng& rng) {
  // With few errors, collisions are rare; track counts sparsely. Callers
  // bound `errors` by kExactThreshold, so a stack array suffices: this runs
  // on every read that draws any bit error, and must not touch the heap.
  std::array<std::pair<std::uint64_t, std::uint32_t>, kExactThreshold> counts;
  std::size_t used = 0;
  for (std::uint64_t e = 0; e < errors; ++e) {
    const std::uint64_t cw = rng.below(n_cw);
    bool found = false;
    for (std::size_t i = 0; i < used; ++i) {
      if (counts[i].first == cw) {
        if (++counts[i].second > t) return false;
        found = true;
        break;
      }
    }
    if (!found) {
      counts[used++] = {cw, 1};
      if (t == 0) return false;
    }
  }
  return true;
}

}  // namespace

double poisson_cdf(std::uint32_t k, double lambda) { return poisson_cdf_impl(k, lambda); }

// ------------------------------------------------------------------- NoEcc

DecodeOutcome NoEcc::decode(std::uint64_t, std::uint64_t bit_errors, sim::Rng&) const {
  DecodeOutcome out;
  out.correctable = bit_errors == 0;
  out.residual_errors = bit_errors;
  return out;
}

// -------------------------------------------------------------------- BCH

std::string BchEcc::name() const {
  return "BCH t=" + std::to_string(t_) + "/" + std::to_string(codeword_bits_ / 8) + "B";
}

double BchEcc::page_success_probability(std::uint64_t page_bits, std::uint64_t bit_errors) const {
  return all_codewords_ok_probability(t_, codewords_in_page(page_bits, codeword_bits_),
                                      bit_errors);
}

DecodeOutcome BchEcc::decode(std::uint64_t page_bits, std::uint64_t bit_errors,
                             sim::Rng& rng) const {
  DecodeOutcome out;
  if (bit_errors == 0) return out;
  const std::uint64_t n_cw = codewords_in_page(page_bits, codeword_bits_);
  bool ok;
  if (bit_errors <= kExactThreshold) {
    ok = exact_assignment_ok(t_, n_cw, bit_errors, rng);
  } else {
    ok = rng.chance(all_codewords_ok_probability(t_, n_cw, bit_errors));
  }
  out.correctable = ok;
  out.residual_errors = ok ? 0 : bit_errors;
  return out;
}

// ------------------------------------------------------------------- LDPC

LdpcEcc::LdpcEcc() : LdpcEcc(Params{}) {}

std::string LdpcEcc::name() const {
  return "LDPC t=" + std::to_string(params_.t_hard) + "+" + std::to_string(params_.max_retries) +
         "r";
}

DecodeOutcome LdpcEcc::decode(std::uint64_t page_bits, std::uint64_t bit_errors,
                              sim::Rng& rng) const {
  DecodeOutcome out;
  if (bit_errors == 0) return out;
  const std::uint64_t codeword_bits = params_.codeword_bytes * 8ULL;
  const std::uint64_t n_cw = codewords_in_page(page_bits, codeword_bits);
  for (std::uint32_t retry = 0; retry <= params_.max_retries; ++retry) {
    const auto t_eff = static_cast<std::uint32_t>(
        static_cast<double>(params_.t_hard) * (1.0 + params_.soft_gain * retry));
    bool ok;
    if (bit_errors <= kExactThreshold && retry == 0) {
      ok = exact_assignment_ok(t_eff, n_cw, bit_errors, rng);
    } else {
      ok = rng.chance(all_codewords_ok_probability(t_eff, n_cw, bit_errors));
    }
    if (ok) {
      out.correctable = true;
      out.soft_retries = retry;
      out.extra_latency = params_.retry_latency * retry;
      out.residual_errors = 0;
      return out;
    }
  }
  out.correctable = false;
  out.soft_retries = params_.max_retries;
  out.extra_latency = params_.retry_latency * params_.max_retries;
  out.residual_errors = bit_errors;
  return out;
}

std::unique_ptr<EccScheme> make_ecc(EccKind kind) {
  switch (kind) {
    case EccKind::kNone: return std::make_unique<NoEcc>();
    case EccKind::kBch: return std::make_unique<BchEcc>();
    case EccKind::kLdpc: return std::make_unique<LdpcEcc>();
  }
  return std::make_unique<BchEcc>();
}

// ------------------------------------------------- Hamming (72,64) SEC-DED
//
// Codeword positions 1..71; positions that are powers of two hold the seven
// Hamming check bits; the remaining 64 positions hold data bits in order.
// An eighth, overall-parity bit covers everything (stored in parity bit 7).

namespace {

constexpr bool is_pow2(unsigned p) { return (p & (p - 1)) == 0; }

/// data-bit index -> codeword position (1..71), computed once.
struct PositionTable {
  std::array<std::uint8_t, 64> data_to_pos{};
  std::array<std::int8_t, 72> pos_to_data{};
  constexpr PositionTable() {
    for (auto& v : pos_to_data) v = -1;
    unsigned d = 0;
    for (unsigned p = 1; p <= 71; ++p) {
      if (is_pow2(p)) continue;
      data_to_pos[d] = static_cast<std::uint8_t>(p);
      pos_to_data[p] = static_cast<std::int8_t>(d);
      ++d;
    }
  }
};
constexpr PositionTable kTable{};

}  // namespace

HammingSecDed::Codeword HammingSecDed::encode(std::uint64_t data) {
  unsigned syn = 0;
  for (unsigned d = 0; d < 64; ++d) {
    if ((data >> d) & 1ULL) syn ^= kTable.data_to_pos[d];
  }
  // Check bit j must equal bit j of the data syndrome so the full syndrome
  // cancels to zero.
  std::uint8_t parity = static_cast<std::uint8_t>(syn & 0x7f);
  // Overall parity over data bits and the seven check bits.
  const unsigned ones =
      static_cast<unsigned>(std::popcount(data)) + static_cast<unsigned>(std::popcount(syn & 0x7fu));
  if (ones & 1u) parity |= 0x80;
  return Codeword{data, parity};
}

std::uint8_t HammingSecDed::syndrome_of(const Codeword& cw) {
  unsigned syn = 0;
  for (unsigned d = 0; d < 64; ++d) {
    if ((cw.data >> d) & 1ULL) syn ^= kTable.data_to_pos[d];
  }
  for (unsigned j = 0; j < 7; ++j) {
    if ((cw.parity >> j) & 1u) syn ^= (1u << j);
  }
  return static_cast<std::uint8_t>(syn);
}

HammingSecDed::Result HammingSecDed::decode(Codeword& cw) {
  const std::uint8_t syn = syndrome_of(cw);
  const unsigned ones = static_cast<unsigned>(std::popcount(cw.data)) +
                        static_cast<unsigned>(std::popcount(cw.parity));
  const bool overall_odd = (ones & 1u) != 0;

  if (syn == 0 && !overall_odd) return Result::kClean;

  if (overall_odd) {
    // Single-bit error at position `syn` (0 means the overall bit itself).
    if (syn == 0) {
      cw.parity ^= 0x80;
    } else if (is_pow2(syn)) {
      unsigned j = 0;
      while ((1u << j) != syn) ++j;
      cw.parity ^= static_cast<std::uint8_t>(1u << j);
    } else if (syn <= 71 && kTable.pos_to_data[syn] >= 0) {
      cw.data ^= (1ULL << kTable.pos_to_data[syn]);
    } else {
      return Result::kDetectedDouble;  // syndrome points outside the code
    }
    return Result::kCorrectedSingle;
  }
  // Even overall parity with non-zero syndrome: two flips.
  return Result::kDetectedDouble;
}

}  // namespace pofi::nand
