#include "crypto/prime.hpp"

#include <gtest/gtest.h>

#include "prime_reference.hpp"

namespace hirep::crypto {
namespace {

TEST(Prime, SmallKnownPrimes) {
  util::Rng rng(1);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 97ULL,
                          251ULL, 257ULL, 65537ULL, 1000000007ULL}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
}

TEST(Prime, SmallKnownComposites) {
  util::Rng rng(2);
  for (std::uint64_t n : {0ULL, 1ULL, 4ULL, 6ULL, 9ULL, 15ULL, 21ULL, 91ULL,
                          221ULL, 65536ULL, 1000000008ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt(n), rng)) << n;
  }
}

TEST(Prime, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  util::Rng rng(3);
  for (std::uint64_t n : {561ULL, 1105ULL, 1729ULL, 2465ULL, 2821ULL,
                          6601ULL, 8911ULL, 41041ULL, 825265ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt(n), rng)) << n;
  }
}

TEST(Prime, LargeKnownPrime) {
  util::Rng rng(4);
  // 2^89 - 1 is a Mersenne prime.
  const BigInt m89 = (BigInt(1) << 89) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m89, rng));
  // 2^67 - 1 is famously composite (193707721 * 761838257287).
  const BigInt m67 = (BigInt(1) << 67) - BigInt(1);
  EXPECT_FALSE(is_probable_prime(m67, rng));
}

class PrimeGenSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrimeGenSweep, GeneratesExactWidthProbablePrimes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 3; ++i) {
    const BigInt p = random_prime(rng, GetParam());
    EXPECT_EQ(p.bit_length(), GetParam());
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimeGenSweep,
                         ::testing::Values(16u, 24u, 32u, 48u, 64u, 96u, 128u));

TEST(Prime, RsaPrimeCoprimality) {
  util::Rng rng(7);
  const BigInt e(65537);
  for (int i = 0; i < 5; ++i) {
    const BigInt p = random_rsa_prime(rng, 48, e);
    EXPECT_EQ(BigInt::gcd(p - BigInt(1), e), BigInt(1));
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

TEST(Prime, RejectsTinyWidths) {
  util::Rng rng(8);
  EXPECT_THROW(random_prime(rng, 1), std::invalid_argument);
}

TEST(Prime, ProductOfTwoPrimesIsComposite) {
  util::Rng rng(9);
  const BigInt p = random_prime(rng, 40);
  const BigInt q = random_prime(rng, 40);
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

// The single-limb search (candidates of at most 64 bits) against the BigInt
// reference: same prime, and the rng left at the same draw, for every
// width it covers.
TEST(PrimeDiff, NativeSearchMatchesBigIntReference) {
  for (unsigned bits = 2; bits <= 64; ++bits) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      util::Rng native(seed * 131 + bits), ref(seed * 131 + bits);
      ASSERT_EQ(random_prime(native, bits), reference::random_prime(ref, bits))
          << bits << " bits, seed " << seed;
      ASSERT_EQ(native(), ref()) << bits << " bits, seed " << seed;
    }
  }
}

TEST(PrimeDiff, VerdictsAndDrawsMatchReferenceOnEdgeValues) {
  struct Case {
    std::uint64_t n;
    bool prime;
  };
  static_assert(271ULL * 541 * 811 == 118901521ULL);
  static_assert(307ULL * 613 * 919 == 172947529ULL);
  const Case cases[] = {
      {0, false}, {1, false}, {2, true}, {3, true},
      {251, true}, {253, false}, {257, true},
      // Carmichael numbers; the last two have no factor below 257.
      {561, false}, {1105, false}, {1729, false}, {41041, false},
      {825265, false}, {118901521, false}, {172947529, false},
      // Strong pseudoprimes to the first prime bases.
      {2047, false}, {1373653, false}, {25326001, false},
      {3215031751ULL, false}, {3825123056546413051ULL, false},
      // Primes either side of the 32- and 64-bit boundaries.
      {4294967291ULL, true},            // 2^32 - 5
      {4294967311ULL, true},            // 2^32 + 15
      {9223372036854775783ULL, true},   // 2^63 - 25
      {18446744073709551557ULL, true},  // 2^64 - 59
      {18446744073709551615ULL, false}, // 2^64 - 1
  };
  for (const Case& c : cases) {
    util::Rng native(c.n), ref(c.n);
    EXPECT_EQ(is_probable_prime(BigInt(c.n), native), c.prime) << c.n;
    EXPECT_EQ(reference::is_probable_prime(BigInt(c.n), ref), c.prime) << c.n;
    EXPECT_EQ(native(), ref()) << c.n;
  }
}

TEST(PrimeDiff, RandomOddInputsMatchReference) {
  util::Rng inputs(0x9e3779b9);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const auto bits = static_cast<unsigned>(2 + inputs.below(63));
    const BigInt n((inputs() >> (64 - bits)) | (1ULL << (bits - 1)) | 1u);
    util::Rng native(i), ref(i);
    ASSERT_EQ(is_probable_prime(n, native), reference::is_probable_prime(n, ref))
        << n.to_decimal();
    ASSERT_EQ(native(), ref()) << n.to_decimal();
  }
}

}  // namespace
}  // namespace hirep::crypto
