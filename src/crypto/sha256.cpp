#include "crypto/sha256.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hirep::crypto {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int k) noexcept {
  return (x >> k) | (x << (32 - k));
}

// A big-endian word written as one store.  Its next reader is a 16-byte
// load (the kernel's block load, or a digest copied into the next hash),
// which forwards from one wide store but stalls behind several byte stores.
template <typename Word>
void store_be(std::uint8_t* out, Word v) {
  std::uint8_t bytes[sizeof(Word)];
  for (std::size_t i = 0; i < sizeof(Word); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(Word) - 1 - i)));
  }
  std::memcpy(out, bytes, sizeof(Word));
}

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

Sha256::Sha256()
    : h_{0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
         0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u} {}

void Sha256::update(std::span<const std::uint8_t> data) {
  assert(!finished_);
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(const std::string& s) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Sha256::Digest Sha256::finish() {
  assert(!finished_);
  finished_ = true;
  // Padding in place: 0x80, zeros to 56 mod 64, the 64-bit big-endian
  // message bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + buffer_len_, buffer_.end(), std::uint8_t{0});
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + buffer_len_, buffer_.begin() + 56,
            std::uint8_t{0});
  store_be(buffer_.data() + 56, bit_len);
  process_block(buffer_.data());

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) store_be(out.data() + 4 * i, h_[i]);
  return out;
}

void sha256_kernels::compress_portable(std::uint32_t* state,
                                       const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

namespace {

// Four rounds per step, two per sha256rnds2.  The state lives as ABEF/CDGH
// lane pairs (the instruction's layout); message words are byte-swapped to
// big-endian on load.  Step g's schedule vector W_g (g >= 4) is
//   sha256msg2(sha256msg1(W_{g-4}, W_{g-3}) + (W_{g-2}[1..3], W_{g-1}[0]),
//              W_{g-1}),
// kept in a four-entry ring.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* block) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                        0xB1);  // CDAB
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w[4];
  for (std::size_t g = 0; g < 16; ++g) {
    __m128i& cur = w[g % 4];
    if (g < 4) {
      cur = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
          byte_swap);
    } else {
      const __m128i& prev = w[(g + 3) % 4];
      cur = _mm_sha256msg1_epu32(cur, w[(g + 1) % 4]);
      cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, w[(g + 2) % 4], 4));
      cur = _mm_sha256msg2_epu32(cur, prev);
    }
    __m128i wk = _mm_add_epi32(
        cur, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

}  // namespace

sha256_kernels::Compress sha256_kernels::sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_SSE4_1)) {
    return nullptr;
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) || !(ebx & bit_SHA)) {
    return nullptr;
  }
  return compress_sha_ni;
}

#else

sha256_kernels::Compress sha256_kernels::sha_ni() { return nullptr; }

#endif

void Sha256::process_block(const std::uint8_t* block) {
  static const sha256_kernels::Compress kernel = [] {
    const sha256_kernels::Compress ni = sha256_kernels::sha_ni();
    return ni != nullptr ? ni : sha256_kernels::compress_portable;
  }();
  kernel(h_.data(), block);
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 s;
  s.update(data);
  return s.finish();
}

Sha256::Digest Sha256::hash(const std::string& s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const auto digest = Sha256::hash(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(std::span<const std::uint8_t>(ipad));
  outer_.update(std::span<const std::uint8_t>(opad));
}

Sha256::Digest HmacSha256::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const auto inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(std::span<const std::uint8_t>(inner_digest));
  return outer.finish();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  return HmacSha256(key).mac(message);
}

}  // namespace hirep::crypto
