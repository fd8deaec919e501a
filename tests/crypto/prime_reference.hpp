// Reference form of the prime search: every candidate width on BigInt, the
// way the library searched before it gained a single-limb path.  The
// library's random_prime / is_probable_prime must return the same values
// and leave the rng at the same position as these, width for width, so the
// keygen-dependent goldens stay bit-identical; tests/crypto/prime_test.cpp
// compares the two.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "crypto/bigint.hpp"
#include "util/rng.hpp"

namespace hirep::crypto::reference {

inline constexpr std::array<std::uint32_t, 53> kSmallPrimes = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

inline bool miller_rabin_round(const BigInt& n, const BigInt& n_minus_1,
                               const BigInt& d, unsigned r, const BigInt& a) {
  BigInt x = BigInt::powmod(a, d, n);
  if (x == BigInt(1) || x == n_minus_1) return true;
  for (unsigned i = 1; i < r; ++i) {
    x = BigInt::mulmod(x, x, n);
    if (x == n_minus_1) return true;
  }
  return false;
}

inline bool is_probable_prime(const BigInt& n, util::Rng& rng,
                              int rounds = 24) {
  if (n < BigInt(2)) return false;
  if (n == BigInt(2)) return true;
  if (n.is_even()) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if ((n % BigInt(p)).is_zero()) return false;
  }
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  unsigned r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }
  if (!miller_rabin_round(n, n_minus_1, d, r, BigInt(2))) return false;
  if (n > BigInt(3) && !miller_rabin_round(n, n_minus_1, d, r, BigInt(3))) {
    return false;
  }
  const BigInt span = n - BigInt(3);  // bases drawn from [2, n-2]
  for (int i = 0; i < rounds; ++i) {
    const BigInt a = BigInt::random_below(rng, span) + BigInt(2);
    if (!miller_rabin_round(n, n_minus_1, d, r, a)) return false;
  }
  return true;
}

inline BigInt random_prime(util::Rng& rng, unsigned bits, int rounds = 24) {
  if (bits < 2) throw std::invalid_argument("prime needs >= 2 bits");
  for (;;) {
    BigInt candidate = BigInt::random_bits(rng, bits);
    if (candidate.is_even()) candidate = candidate + BigInt(1);
    if (candidate.bit_length() != bits) continue;
    if (reference::is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

}  // namespace hirep::crypto::reference
