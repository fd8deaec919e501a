// Differential property suite for the 64-bit-limb BigInt kernel.
//
// A deliberately boring base-256 reference implementation (one byte per
// limb, schoolbook everything, binary long division) re-computes every
// public BigInt operation over seeded random operand streams at mixed
// widths, from a single limb up to 2048 bits.  Any divergence is shrunk
// to a minimal failing operand pair before it is reported, so a carry
// chain bug shows up as a two-byte counterexample instead of a 2048-bit
// hex wall.  The reference shares no code — and no bug — with the
// word-limb kernel: it never touches 64-bit carries, Knuth D, or
// Montgomery form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "crypto/bigint.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: little-endian base-256 digits, normalized (no
// trailing zero bytes).  Everything is O(n^2) or worse on purpose.

using Ref = std::vector<std::uint8_t>;

void ref_trim(Ref& a) {
  while (!a.empty() && a.back() == 0) a.pop_back();
}

int ref_cmp(const Ref& a, const Ref& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Ref ref_add(const Ref& a, const Ref& b) {
  Ref out;
  unsigned carry = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()) || carry; ++i) {
    unsigned s = carry;
    if (i < a.size()) s += a[i];
    if (i < b.size()) s += b[i];
    out.push_back(static_cast<std::uint8_t>(s & 0xff));
    carry = s >> 8;
  }
  ref_trim(out);
  return out;
}

// Requires a >= b.
Ref ref_sub(const Ref& a, const Ref& b) {
  Ref out;
  int borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    int s = static_cast<int>(a[i]) - borrow - (i < b.size() ? b[i] : 0);
    borrow = s < 0;
    if (s < 0) s += 256;
    out.push_back(static_cast<std::uint8_t>(s));
  }
  ref_trim(out);
  return out;
}

Ref ref_mul(const Ref& a, const Ref& b) {
  if (a.empty() || b.empty()) return {};
  Ref out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const unsigned s = out[i + j] + a[i] * b[j] + carry;
      out[i + j] = static_cast<std::uint8_t>(s & 0xff);
      carry = s >> 8;
    }
    std::size_t k = i + b.size();
    while (carry) {
      const unsigned s = out[k] + carry;
      out[k] = static_cast<std::uint8_t>(s & 0xff);
      carry = s >> 8;
      ++k;
    }
  }
  ref_trim(out);
  return out;
}

// Binary long division: bit-at-a-time shift-subtract.  Slow and obvious.
std::pair<Ref, Ref> ref_divmod(const Ref& num, const Ref& den) {
  Ref q(num.size(), 0);
  Ref r;
  for (std::size_t i = num.size(); i-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      // r = (r << 1) | num bit
      unsigned carry = (num[i] >> bit) & 1u;
      for (auto& digit : r) {
        const unsigned s = (static_cast<unsigned>(digit) << 1) | carry;
        digit = static_cast<std::uint8_t>(s & 0xff);
        carry = s >> 8;
      }
      if (carry) r.push_back(static_cast<std::uint8_t>(carry));
      if (ref_cmp(r, den) >= 0) {
        r = ref_sub(r, den);
        q[i] |= static_cast<std::uint8_t>(1u << bit);
      }
    }
  }
  ref_trim(q);
  return {q, r};
}

Ref ref_mod(const Ref& a, const Ref& m) { return ref_divmod(a, m).second; }

Ref ref_powmod(const Ref& base, const Ref& exp, const Ref& m) {
  if (m.size() == 1 && m[0] == 1) return {};
  Ref result{1};
  Ref b = ref_mod(base, m);
  for (std::size_t i = 0; i < exp.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      if ((exp[i] >> bit) & 1u) result = ref_mod(ref_mul(result, b), m);
      b = ref_mod(ref_mul(b, b), m);
    }
  }
  return result;
}

Ref ref_shl(const Ref& a, unsigned bits) {
  if (a.empty()) return {};
  Ref out(a.size() + bits / 8 + 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const unsigned v = static_cast<unsigned>(a[i]) << (bits % 8);
    out[i + bits / 8] |= static_cast<std::uint8_t>(v & 0xff);
    out[i + bits / 8 + 1] |= static_cast<std::uint8_t>(v >> 8);
  }
  ref_trim(out);
  return out;
}

Ref ref_shr(const Ref& a, unsigned bits) {
  const std::size_t drop = bits / 8;
  if (drop >= a.size()) return {};
  Ref out;
  const unsigned sh = bits % 8;
  for (std::size_t i = drop; i < a.size(); ++i) {
    unsigned v = static_cast<unsigned>(a[i]) >> sh;
    if (sh && i + 1 < a.size()) {
      v |= static_cast<unsigned>(a[i + 1]) << (8 - sh);
    }
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  ref_trim(out);
  return out;
}

Ref ref_gcd(Ref a, Ref b) {
  while (!b.empty()) {
    Ref r = ref_mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

// ---------------------------------------------------------------------------
// Conversions between the two worlds (via the big-endian byte codec, which
// gets its own direct round-trip coverage below).

BigInt to_big(const Ref& a) {
  std::vector<std::uint8_t> be(a.rbegin(), a.rend());
  return BigInt::from_bytes(be);
}

Ref to_ref(const BigInt& x) {
  const auto be = x.to_bytes();
  Ref out(be.rbegin(), be.rend());
  ref_trim(out);
  return out;
}

std::string hex_of(const Ref& a) {
  const BigInt b = to_big(a);
  return b.is_zero() ? "0" : b.to_hex();
}

Ref random_ref(util::Rng& rng, unsigned max_bits) {
  const unsigned bits = 1 + static_cast<unsigned>(rng() % max_bits);
  const unsigned bytes = (bits + 7) / 8;
  Ref out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  // Clamp to the bit budget so widths cluster across the whole range.
  const unsigned top = bits % 8;
  if (top) out.back() &= static_cast<std::uint8_t>((1u << top) - 1);
  ref_trim(out);
  return out;
}

// ---------------------------------------------------------------------------
// Shrinking: given a failing (a, b) pair for a binary operation, greedily
// try smaller operands that still fail, and report the smallest found.

using FailsFn = std::function<bool(const Ref&, const Ref&)>;

std::vector<Ref> shrink_candidates(const Ref& a) {
  std::vector<Ref> out;
  if (a.empty()) return out;
  Ref half(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(a.size() / 2));
  ref_trim(half);
  out.push_back(std::move(half));                       // drop the top half
  Ref top(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(a.size() - 1));
  ref_trim(top);
  out.push_back(std::move(top));                        // drop the top byte
  out.push_back(ref_shr(a, 1));                         // halve the value
  if (!(a.size() == 1 && a[0] == 1)) {
    out.push_back(ref_sub(a, Ref{1}));                  // decrement
  }
  return out;
}

std::pair<Ref, Ref> shrink_pair(Ref a, Ref b, const FailsFn& fails) {
  // At most a few hundred probes: each accepted candidate strictly
  // shrinks a byte count or the value, so this terminates fast.
  for (int round = 0; round < 512; ++round) {
    bool improved = false;
    for (const Ref& cand : shrink_candidates(a)) {
      if (fails(cand, b)) {
        a = cand;
        improved = true;
        break;
      }
    }
    for (const Ref& cand : shrink_candidates(b)) {
      if (fails(a, cand)) {
        b = cand;
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  return {a, b};
}

// Checks one binary op; on mismatch, shrinks and fails the test with the
// minimal counterexample.
void check_op(const char* name, const Ref& a, const Ref& b,
              const std::function<bool(const Ref&, const Ref&)>& agrees) {
  if (agrees(a, b)) return;
  const FailsFn fails = [&](const Ref& x, const Ref& y) { return !agrees(x, y); };
  const auto [sa, sb] = shrink_pair(a, b, fails);
  ADD_FAILURE() << name << " diverges from the byte-limb reference; shrunk "
                << "counterexample: a=0x" << hex_of(sa) << " b=0x"
                << hex_of(sb) << " (original widths " << a.size() * 8 << "/"
                << b.size() * 8 << " bits)";
}

bool big_eq(const BigInt& got, const Ref& want) { return to_ref(got) == want; }

// One random operation over one width class, checked both ways.
void run_case(util::Rng& rng, unsigned max_bits) {
  const Ref a = random_ref(rng, max_bits);
  const Ref b = random_ref(rng, max_bits);
  const BigInt A = to_big(a);
  const BigInt B = to_big(b);

  switch (rng() % 6) {
    case 0:
      check_op("add", a, b, [](const Ref& x, const Ref& y) {
        return big_eq(to_big(x) + to_big(y), ref_add(x, y));
      });
      break;
    case 1:
      check_op("sub", a, b, [](const Ref& x, const Ref& y) {
        const Ref& hi = ref_cmp(x, y) >= 0 ? x : y;
        const Ref& lo = ref_cmp(x, y) >= 0 ? y : x;
        return big_eq(to_big(hi) - to_big(lo), ref_sub(hi, lo));
      });
      break;
    case 2:
      check_op("mul", a, b, [](const Ref& x, const Ref& y) {
        return big_eq(to_big(x) * to_big(y), ref_mul(x, y));
      });
      break;
    case 3:
    case 4: {
      if (b.empty()) {
        EXPECT_THROW((void)BigInt::divmod(A, B), std::domain_error);
        break;
      }
      check_op("divmod", a, b, [](const Ref& x, const Ref& y) {
        const auto [q, r] = BigInt::divmod(to_big(x), to_big(y));
        const auto [rq, rr] = ref_divmod(x, y);
        return big_eq(q, rq) && big_eq(r, rr) &&
               big_eq(to_big(x) / to_big(y), rq) &&
               big_eq(to_big(x) % to_big(y), rr);
      });
      break;
    }
    default: {
      // powmod: cap the exponent so the byte-limb reference stays fast;
      // the modulus still spans every limb-boundary width.
      Ref m = random_ref(rng, std::min(max_bits, 256u));
      if (m.empty()) m = Ref{1};
      Ref e = random_ref(rng, 48);
      check_op("powmod", a, m, [&e](const Ref& x, const Ref& y) {
        return big_eq(BigInt::powmod(to_big(x), to_big(e), to_big(y)),
                      ref_powmod(x, e, y));
      });
      break;
    }
  }

  // Cheap invariants on every draw: comparison agreement, shift round
  // trips, and the mulmod identity.
  EXPECT_EQ(A < B, ref_cmp(a, b) < 0);
  EXPECT_EQ(A == B, ref_cmp(a, b) == 0);
  const unsigned sh = static_cast<unsigned>(rng() % 130);
  EXPECT_TRUE(big_eq(A << sh, ref_shl(a, sh)));
  EXPECT_TRUE(big_eq(A >> sh, ref_shr(a, sh)));
  if (!b.empty()) {
    EXPECT_TRUE(big_eq(BigInt::mulmod(A, B, B), ref_mod(ref_mul(a, b), b)));
  }
}

// ---------------------------------------------------------------------------

TEST(BigIntDiff, TwoHundredRandomSequencesAcrossMixedWidths) {
  // >= 200 independent seeded sequences; each draws its own width class so
  // the suite sweeps 1-limb values through 2048-bit ones.  Any failure
  // names its sequence seed, so a red run is reproducible in isolation.
  const unsigned kWidths[] = {64, 64, 128, 192, 256, 512, 1024, 2048};
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    SCOPED_TRACE("sequence seed " + std::to_string(seq));
    util::Rng rng(0x5eedb15e + seq);
    const unsigned max_bits = kWidths[seq % (sizeof(kWidths) / sizeof(*kWidths))];
    for (int op = 0; op < 6; ++op) run_case(rng, max_bits);
  }
}

TEST(BigIntDiff, EdgeVectors) {
  const BigInt zero;
  const BigInt one(1);
  const BigInt limb_max(~std::uint64_t{0});           // 2^64 - 1
  const BigInt two64 = limb_max + one;                // 2^64
  const BigInt two64p1 = two64 + one;                 // 2^64 + 1

  EXPECT_TRUE((zero + zero).is_zero());
  EXPECT_TRUE((zero * limb_max).is_zero());
  EXPECT_EQ(limb_max + one, BigInt::from_hex("10000000000000000"));
  EXPECT_EQ(two64 - one, limb_max);
  EXPECT_EQ(two64p1 % two64, one);
  EXPECT_EQ(two64 * two64, BigInt(1) << 128);
  EXPECT_EQ(limb_max * limb_max,
            (BigInt(1) << 128) - (two64 << 1) + one);  // (2^64-1)^2
  EXPECT_EQ(BigInt::divmod(two64p1, limb_max).second, BigInt(2));
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(limb_max.bit_length(), 64u);
  EXPECT_EQ(two64.bit_length(), 65u);
  EXPECT_EQ(two64.low_u64(), 0u);
  EXPECT_EQ(two64p1.low_u64(), 1u);
  EXPECT_THROW((void)(one - two64), std::underflow_error);
  EXPECT_THROW((void)BigInt::divmod(one, zero), std::domain_error);
  EXPECT_THROW((void)(one % zero), std::domain_error);
}

TEST(BigIntDiff, LeadingZeroLimbNormalization) {
  // from_limbs must strip high zero limbs so equal values compare equal
  // and hash/serialize identically, whatever buffer they arrived in.
  const std::vector<BigInt::Limb> padded = {0x1234, 0, 0, 0};
  const BigInt a = BigInt::from_limbs(padded);
  EXPECT_EQ(a, BigInt(0x1234));
  EXPECT_EQ(a.limbs().size(), 1u);

  const std::vector<BigInt::Limb> zeros = {0, 0, 0};
  EXPECT_TRUE(BigInt::from_limbs(zeros).is_zero());
  EXPECT_TRUE(BigInt::from_limbs({}).is_zero());

  // Mid-stream zero limbs are significant and must survive.
  const std::vector<BigInt::Limb> gap = {7, 0, 9};
  const BigInt g = BigInt::from_limbs(gap);
  EXPECT_EQ(g.limbs().size(), 3u);
  EXPECT_EQ(g >> 128, BigInt(9));
  EXPECT_EQ(g.low_u64(), 7u);

  // Leading zero bytes on the wire normalize the same way.
  const std::uint8_t be[] = {0, 0, 0, 0x12, 0x34};
  EXPECT_EQ(BigInt::from_bytes(be), BigInt(0x1234));
}

TEST(BigIntDiff, CodecRoundTripsAgainstReference) {
  util::Rng rng(0xc0dec);
  for (int i = 0; i < 64; ++i) {
    const Ref a = random_ref(rng, 1 + static_cast<unsigned>(rng() % 512));
    const BigInt A = to_big(a);
    // bytes -> BigInt -> bytes is minimal big-endian
    const auto bytes = A.to_bytes();
    EXPECT_EQ(BigInt::from_bytes(bytes), A);
    if (!a.empty()) {
      EXPECT_NE(bytes.front(), 0u) << "non-minimal encoding";
    }
    // hex and limb codecs agree with the byte codec
    EXPECT_EQ(BigInt::from_hex(A.to_hex()), A);
    EXPECT_EQ(BigInt::from_limbs(A.limbs()), A);
    // decimal: spot-check via the reference (divide by 10 repeatedly)
    std::string dec;
    Ref n = a;
    const Ref ten{10};
    if (n.empty()) dec.push_back('0');
    while (!n.empty()) {
      auto [q, r] = ref_divmod(n, ten);
      dec.push_back(static_cast<char>('0' + (r.empty() ? 0 : r[0])));
      n = std::move(q);
    }
    std::reverse(dec.begin(), dec.end());
    EXPECT_EQ(A.to_decimal(), dec);
  }
}

TEST(BigIntDiff, GcdAndModinvAgreeWithReference) {
  util::Rng rng(0x6cd);
  for (int i = 0; i < 48; ++i) {
    const Ref a = random_ref(rng, 256);
    const Ref b = random_ref(rng, 256);
    if (a.empty() && b.empty()) continue;
    const Ref g = ref_gcd(a, b);
    EXPECT_TRUE(big_eq(BigInt::gcd(to_big(a), to_big(b)), g));
    // Modular inverse: verified by its defining property when it exists.
    if (!b.empty() && !(b.size() == 1 && b[0] == 1) &&
        g.size() == 1 && g[0] == 1 && !a.empty()) {
      const BigInt inv = BigInt::modinv(to_big(a), to_big(b));
      EXPECT_EQ(BigInt::mulmod(inv, to_big(a), to_big(b)), BigInt(1));
    }
  }
  EXPECT_THROW((void)BigInt::modinv(BigInt(2), BigInt(4)), std::domain_error);
}

TEST(BigIntDiff, RandomDrawPatternIsOneWordPer32Bits) {
  // The deterministic-replay contract: random_bits consumes exactly
  // ceil(bits/32) rng draws, little-end first, top word masked and its
  // top bit forced.  Two generators seeded identically must interleave.
  util::Rng a(42), b(42);
  const BigInt x = BigInt::random_bits(a, 96);
  std::uint64_t w0 = b() & 0xffffffffu;
  std::uint64_t w1 = b() & 0xffffffffu;
  std::uint64_t w2 = b() & 0xffffffffu;
  w2 = (w2 & ((1ull << 32) - 1)) | (1ull << 31);  // top word, top bit set
  const std::vector<BigInt::Limb> limbs = {w0 | (w1 << 32), w2};
  EXPECT_EQ(x, BigInt::from_limbs(limbs));
  // And both streams are in the same state afterwards.
  EXPECT_EQ(a(), b());
}

TEST(BigIntDiff, RandomBelowMasksPer32BitWord) {
  // random_below rejects by masking candidate words to the bound's bit
  // length — 32-bit words, not 64-bit limbs.  A bound just over a 32-bit
  // boundary must therefore draw 2 words (not 2 limbs) per candidate.
  util::Rng a(7), b(7);
  const BigInt bound = BigInt(1) << 33;  // 34 bits
  const BigInt x = BigInt::random_below(a, bound);
  EXPECT_TRUE(x < bound);
  // Replay manually: draw word pairs, mask to 34 bits, first hit wins.
  for (;;) {
    const std::uint64_t w0 = b() & 0xffffffffu;
    const std::uint64_t w1 = b() & 0xffffffffu;
    const std::uint64_t v = (w0 | (w1 << 32)) & ((1ull << 34) - 1);
    if (BigInt(v) < bound) {
      EXPECT_EQ(x, BigInt(v));
      break;
    }
  }
  EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace hirep::crypto
