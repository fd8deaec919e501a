// Probabilistic primality testing and prime generation for RSA key
// generation.  Miller-Rabin with enough rounds that the error probability
// is far below any simulation-relevant scale (4^-rounds).  Values of at
// most 64 bits run on native words (DESIGN §13.6) with the same results
// and the same rng draws as the BigInt path wider values take.
#pragma once

#include "crypto/bigint.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {

/// Miller-Rabin probabilistic primality test.  Deterministically correct
/// for n < 3,215,031,751 with the fixed small bases it tries first.
bool is_probable_prime(const BigInt& n, util::Rng& rng, int rounds = 24);

/// Generates a random prime with exactly `bits` bits (top bit set).
/// bits must be >= 2.
BigInt random_prime(util::Rng& rng, unsigned bits, int rounds = 24);

/// Generates a prime p with `bits` bits such that gcd(p-1, e) == 1, as
/// required for an RSA prime compatible with public exponent e.
BigInt random_rsa_prime(util::Rng& rng, unsigned bits, const BigInt& e,
                        int rounds = 24);

}  // namespace hirep::crypto
