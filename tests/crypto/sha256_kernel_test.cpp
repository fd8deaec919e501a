// The SHA-256 compression kernels (src/crypto/sha256_kernels.hpp) against
// each other: the FIPS 180-4 vectors through each kernel, the SHA-NI
// kernel against the portable reference on seeded random (state, block)
// pairs, and the dispatching Sha256 against a portable-only hash at every
// message length across the one- and two-block padding boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {
namespace {

using sha256_kernels::Compress;

constexpr const char* kNoShaNi =
    "this CPU lacks SHA-NI or SSE4.1; only the portable kernel runs here";

/// FIPS 180-4 padding and chaining over one kernel, independent of
/// Sha256's buffering.
Sha256::Digest digest_with(Compress kernel, std::span<const std::uint8_t> msg) {
  std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                            0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                            0x1f83d9abu, 0x5be0cd19u};
  util::Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    kernel(state, padded.data() + off);
  }
  Sha256::Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

void expect_fips_vectors(Compress kernel) {
  const struct {
    std::string msg;
    const char* hex;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : vectors) {
    const std::span<const std::uint8_t> msg(
        reinterpret_cast<const std::uint8_t*>(v.msg.data()), v.msg.size());
    EXPECT_EQ(util::to_hex(digest_with(kernel, msg)), v.hex)
        << "message of " << v.msg.size() << " bytes";
  }
}

TEST(Sha256Kernel, PortableKernelMatchesFipsVectors) {
  expect_fips_vectors(sha256_kernels::compress_portable);
}

TEST(Sha256Kernel, ShaNiKernelMatchesFipsVectors) {
  const Compress ni = sha256_kernels::sha_ni();
  if (ni == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_fips_vectors(ni);
}

TEST(Sha256Kernel, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  const Compress ni = sha256_kernels::sha_ni();
  if (ni == nullptr) GTEST_SKIP() << kNoShaNi;
  util::Rng rng(180);
  for (int i = 0; i < 12000; ++i) {
    std::uint32_t reference[8];
    std::uint8_t block[64];
    // The first pairs are the all-zero and all-one extremes of state and
    // block; the rest are uniformly random.
    if (i < 4) {
      std::fill(std::begin(reference), std::end(reference),
                (i & 1) ? 0xffffffffu : 0u);
      std::fill(std::begin(block), std::end(block), (i & 2) ? 0xff : 0);
    } else {
      for (auto& w : reference) w = static_cast<std::uint32_t>(rng());
      for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    }
    std::uint32_t accelerated[8];
    std::copy(std::begin(reference), std::end(reference), accelerated);
    sha256_kernels::compress_portable(reference, block);
    ni(accelerated, block);
    ASSERT_TRUE(std::equal(std::begin(reference), std::end(reference),
                           accelerated))
        << "pair " << i;
  }
}

TEST(Sha256Kernel, DispatchingHashMatchesPortableAtEveryLength) {
  util::Rng rng(4);
  for (std::size_t len = 0; len <= 300; ++len) {
    util::Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    const auto expected = digest_with(sha256_kernels::compress_portable, msg);
    EXPECT_EQ(Sha256::hash(msg), expected) << "len " << len;
    // Split updates exercise the partial-block buffer on the same bytes.
    Sha256 split;
    const std::span<const std::uint8_t> view(msg);
    split.update(view.first(len / 3));
    split.update(view.subspan(len / 3));
    EXPECT_EQ(split.finish(), expected) << "len " << len << " (split)";
  }
}

}  // namespace
}  // namespace hirep::crypto
