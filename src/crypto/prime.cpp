#include "crypto/prime.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "crypto/limb_ops.hpp"

namespace hirep::crypto {

namespace {

// Trial division screen: rules out ~88% of odd candidates cheaply before
// the expensive Miller-Rabin exponentiations.
constexpr std::array<std::uint32_t, 53> kSmallPrimes = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

bool miller_rabin_round(const BigInt& n, const BigInt& n_minus_1,
                        const BigInt& d, unsigned r, const BigInt& a) {
  BigInt x = BigInt::powmod(a, d, n);
  if (x == BigInt(1) || x == n_minus_1) return true;
  for (unsigned i = 1; i < r; ++i) {
    x = BigInt::mulmod(x, x, n);
    if (x == n_minus_1) return true;
  }
  return false;
}

// --- Single-limb path: candidates of at most 64 bits -----------------------
//
// The same search as the BigInt code, decision for decision and draw for
// draw: the draws below follow BigInt::random_bits/random_below's frozen
// one-32-bit-word-per-rng() rule (DESIGN §13.1), and Miller-Rabin computes
// the same residues, so every candidate, early exit and next draw match.

// Value of `words` consecutive 32-bit draws, little-end first.
std::uint64_t draw_words(util::Rng& rng, unsigned words) {
  std::uint64_t v = 0;
  for (unsigned w = 0; w < words; ++w) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(rng()))
         << (w * 32);
  }
  return v;
}

// BigInt::random_bits for 1 <= bits <= 64.
std::uint64_t random_bits64(util::Rng& rng, unsigned bits) {
  std::uint64_t v = draw_words(rng, (bits + 31) / 32);
  if (bits < 64) v &= (std::uint64_t{1} << bits) - 1;
  return v | (std::uint64_t{1} << (bits - 1));
}

// BigInt::random_below for 0 < bound < 2^64: rejection over whole words,
// the top word masked to the bound's bit length.
std::uint64_t random_below64(util::Rng& rng, std::uint64_t bound) {
  const auto bits = static_cast<unsigned>(std::bit_width(bound));
  const std::uint64_t keep =
      bits % 32 != 0 ? (std::uint64_t{1} << bits) - 1 : ~std::uint64_t{0};
  for (;;) {
    const std::uint64_t v = draw_words(rng, (bits + 31) / 32) & keep;
    if (v < bound) return v;
  }
}

// One-limb Montgomery context (R = 2^64) for an odd modulus n >= 3.
class Mont64 {
 public:
  explicit Mont64(std::uint64_t n) noexcept
      : n_(n), n_prime_(0u - limb::inv64(n)), one_((0u - n) % n) {
    (void)limb::div128by64(one_, 0, n_, r2_);  // (R mod n) * R mod n
  }

  std::uint64_t one() const noexcept { return one_; }  ///< 1, Montgomery form
  /// n - 1 in Montgomery form.
  std::uint64_t minus_one() const noexcept { return n_ - one_; }
  std::uint64_t to_mont(std::uint64_t a) const noexcept { return mul(a, r2_); }

  /// REDC(a * b) = abR^{-1} mod n for a, b < n.
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    std::uint64_t hi;
    const std::uint64_t lo = limb::mul64(a, b, hi);
    std::uint64_t mn_hi;
    const std::uint64_t mn_lo = limb::mul64(lo * n_prime_, n_, mn_hi);
    std::uint64_t carry = 0;
    (void)limb::adc64(lo, mn_lo, carry);  // low word is zero by construction
    const std::uint64_t t = limb::adc64(hi, mn_hi, carry);
    return (carry != 0 || t >= n_) ? t - n_ : t;
  }

  /// base^exp in Montgomery form; `base` is in Montgomery form.
  std::uint64_t pow(std::uint64_t base, std::uint64_t exp) const noexcept {
    std::uint64_t x = one_;
    for (int i = static_cast<int>(std::bit_width(exp)) - 1; i >= 0; --i) {
      x = mul(x, x);
      if ((exp >> i) & 1u) x = mul(x, base);
    }
    return x;
  }

 private:
  std::uint64_t n_;
  std::uint64_t n_prime_;  // -n^{-1} mod 2^64
  std::uint64_t one_;      // R mod n
  std::uint64_t r2_ = 0;   // R^2 mod n
};

bool miller_rabin_round64(const Mont64& m, std::uint64_t d, unsigned r,
                          std::uint64_t a) {
  std::uint64_t x = m.pow(m.to_mont(a), d);
  if (x == m.one() || x == m.minus_one()) return true;
  for (unsigned i = 1; i < r; ++i) {
    x = m.mul(x, x);
    if (x == m.minus_one()) return true;
  }
  return false;
}

bool is_probable_prime64(std::uint64_t n, util::Rng& rng, int rounds) {
  if (n < 2) return false;
  if (n == 2) return true;
  if ((n & 1u) == 0) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // Past the screen n >= 257, so the bases 2 and 3 are below n.
  const unsigned r = static_cast<unsigned>(std::countr_zero(n - 1));
  const std::uint64_t d = (n - 1) >> r;
  const Mont64 m(n);
  if (!miller_rabin_round64(m, d, r, 2)) return false;
  if (!miller_rabin_round64(m, d, r, 3)) return false;
  for (int i = 0; i < rounds; ++i) {
    if (!miller_rabin_round64(m, d, r, random_below64(rng, n - 3) + 2)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool is_probable_prime(const BigInt& n, util::Rng& rng, int rounds) {
  if (n.bit_length() <= 64) return is_probable_prime64(n.low_u64(), rng, rounds);
  // From here n >= 2^64: above every small prime and both fixed bases.
  if (n.is_even()) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if ((n % BigInt(p)).is_zero()) return false;
  }

  // Write n-1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  unsigned r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  // First two bases fixed (2 and 3) — catches most composites immediately —
  // then random bases in [2, n-2].
  if (!miller_rabin_round(n, n_minus_1, d, r, BigInt(2))) return false;
  if (!miller_rabin_round(n, n_minus_1, d, r, BigInt(3))) return false;
  const BigInt span = n - BigInt(3);  // bases drawn from [2, n-2]
  for (int i = 0; i < rounds; ++i) {
    const BigInt a = BigInt::random_below(rng, span) + BigInt(2);
    if (!miller_rabin_round(n, n_minus_1, d, r, a)) return false;
  }
  return true;
}

BigInt random_prime(util::Rng& rng, unsigned bits, int rounds) {
  if (bits < 2) throw std::invalid_argument("prime needs >= 2 bits");
  if (bits <= 64) {
    for (;;) {
      // An even draw's +1 only sets bit 0, so the width stays `bits`.
      const std::uint64_t candidate = random_bits64(rng, bits) | 1u;
      if (is_probable_prime64(candidate, rng, rounds)) return BigInt(candidate);
    }
  }
  for (;;) {
    BigInt candidate = BigInt::random_bits(rng, bits);
    if (candidate.is_even()) candidate = candidate + BigInt(1);
    if (is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

BigInt random_rsa_prime(util::Rng& rng, unsigned bits, const BigInt& e,
                        int rounds) {
  for (;;) {
    const BigInt p = random_prime(rng, bits, rounds);
    if (BigInt::gcd(p - BigInt(1), e) == BigInt(1)) return p;
  }
}

}  // namespace hirep::crypto
