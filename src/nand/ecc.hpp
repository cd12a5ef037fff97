// Error-correcting codes used by SSD controllers.
//
// Two layers:
//  * A *capability model* (`EccScheme`) used on the hot simulation path: a
//    page carries a raw bit-error count; the scheme decides whether the
//    controller's decoder would recover it, and at what read-latency cost.
//    BCH is modelled per-codeword with exact Poisson partitioning of errors
//    over codewords; LDPC adds soft-read retries (Table I: SSD B uses LDPC).
//  * A *real codec* (`HammingSecDed`, (72,64)) exercised in full-payload mode
//    and by property tests, so the platform's checksum machinery is verified
//    against genuine bit flips, not just the capability abstraction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/enum_names.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pofi::nand {

struct DecodeOutcome {
  bool correctable = true;
  std::uint64_t residual_errors = 0;    ///< errors left if uncorrectable
  sim::Duration extra_latency{};        ///< retries / soft reads
  std::uint32_t soft_retries = 0;
};

class EccScheme {
 public:
  virtual ~EccScheme() = default;

  /// Decide the fate of a page read that carries `bit_errors` raw errors
  /// spread uniformly over `page_bits` data bits.
  [[nodiscard]] virtual DecodeOutcome decode(std::uint64_t page_bits, std::uint64_t bit_errors,
                                             sim::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Rough per-codeword correction strength, for reporting.
  [[nodiscard]] virtual std::uint32_t strength() const = 0;
};

/// No correction at all (raw NAND): any error is fatal.
class NoEcc final : public EccScheme {
 public:
  [[nodiscard]] DecodeOutcome decode(std::uint64_t, std::uint64_t bit_errors,
                                     sim::Rng&) const override;
  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] std::uint32_t strength() const override { return 0; }
};

/// BCH-class hard-decision code: corrects up to `t` errors per codeword of
/// `codeword_bits`. A page of B bits holds B/codeword_bits codewords; errors
/// land in codewords as independent Poissons conditioned on the total.
class BchEcc final : public EccScheme {
 public:
  explicit BchEcc(std::uint32_t t_per_codeword = 40, std::uint32_t codeword_bytes = 1024)
      : t_(t_per_codeword), codeword_bits_(codeword_bytes * 8ULL) {}

  [[nodiscard]] DecodeOutcome decode(std::uint64_t page_bits, std::uint64_t bit_errors,
                                     sim::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t strength() const override { return t_; }

  /// Probability that every codeword of the page decodes.
  [[nodiscard]] double page_success_probability(std::uint64_t page_bits,
                                                std::uint64_t bit_errors) const;

 private:
  std::uint32_t t_;
  std::uint64_t codeword_bits_;
};

/// LDPC with soft-read retries: hard-decision strength `t`, and each of up to
/// `max_retries` soft re-reads raises effective strength by `soft_gain` but
/// costs one extra page-read latency. Matches how modern TLC controllers
/// trade tail latency for correction.
class LdpcEcc final : public EccScheme {
 public:
  struct Params {
    std::uint32_t t_hard = 60;
    std::uint32_t codeword_bytes = 2048;
    std::uint32_t max_retries = 3;
    double soft_gain = 0.4;  ///< strength multiplier added per retry
    sim::Duration retry_latency = sim::Duration::us(80);
  };

  explicit LdpcEcc(Params p) : params_(p) {}
  LdpcEcc();  // out-of-line: GCC 12 in-class delegation NSDMI bug

  [[nodiscard]] DecodeOutcome decode(std::uint64_t page_bits, std::uint64_t bit_errors,
                                     sim::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t strength() const override { return params_.t_hard; }

 private:
  Params params_;
};

enum class EccKind { kNone, kBch, kLdpc };
[[nodiscard]] constexpr auto enum_names(EccKind) {
  return std::to_array<sim::EnumName<EccKind>>(
      {{EccKind::kNone, "none"}, {EccKind::kBch, "BCH"}, {EccKind::kLdpc, "LDPC"}});
}
[[nodiscard]] constexpr const char* to_string(EccKind kind) { return sim::enum_name(kind); }
[[nodiscard]] std::unique_ptr<EccScheme> make_ecc(EccKind kind);

/// Regularised lower incomplete gamma based Poisson CDF P(X <= k | lambda),
/// exposed for tests and for BchEcc.
[[nodiscard]] double poisson_cdf(std::uint32_t k, double lambda);

// ---------------------------------------------------------------------------
// Real codec: Hamming (72,64) SEC-DED over 64-bit words.
// ---------------------------------------------------------------------------
class HammingSecDed {
 public:
  struct Codeword {
    std::uint64_t data = 0;
    std::uint8_t parity = 0;
  };

  enum class Result : std::uint8_t { kClean, kCorrectedSingle, kDetectedDouble };

  /// Compute the 8 check bits (7 Hamming + 1 overall parity) for `data`.
  [[nodiscard]] static Codeword encode(std::uint64_t data);

  /// Decode in place: fixes a single flipped bit (data or parity), flags a
  /// double flip as uncorrectable.
  static Result decode(Codeword& cw);

 private:
  [[nodiscard]] static std::uint8_t syndrome_of(const Codeword& cw);
};

}  // namespace pofi::nand
