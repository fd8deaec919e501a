#include "crypto/stream_cipher.hpp"

#include <gtest/gtest.h>

#include <string>

#include "crypto/rsa.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {
namespace {

StreamCipher::Key test_key(std::uint8_t fill) {
  StreamCipher::Key k;
  k.fill(fill);
  return k;
}

TEST(StreamCipher, EncryptDecryptRoundTrip) {
  const util::Bytes plain{1, 2, 3, 4, 5, 200, 0, 42};
  StreamCipher enc(test_key(7), 1);
  const auto ct = enc.transform(plain);
  StreamCipher dec(test_key(7), 1);
  EXPECT_EQ(dec.transform(ct), plain);
}

TEST(StreamCipher, CiphertextDiffersFromPlaintext) {
  const util::Bytes plain(64, 0);
  StreamCipher enc(test_key(1));
  const auto ct = enc.transform(plain);
  EXPECT_NE(ct, plain);
}

TEST(StreamCipher, DifferentKeysDifferentStreams) {
  const util::Bytes plain(32, 0);
  StreamCipher a(test_key(1)), b(test_key(2));
  EXPECT_NE(a.transform(plain), b.transform(plain));
}

TEST(StreamCipher, DifferentNoncesDifferentStreams) {
  const util::Bytes plain(32, 0);
  StreamCipher a(test_key(1), 10), b(test_key(1), 11);
  EXPECT_NE(a.transform(plain), b.transform(plain));
}

TEST(StreamCipher, ChunkedApplicationMatchesWhole) {
  util::Rng rng(1);
  util::Bytes plain(200);
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng());

  StreamCipher whole(test_key(5), 3);
  const auto expected = whole.transform(plain);

  StreamCipher chunked(test_key(5), 3);
  util::Bytes actual = plain;
  std::span<std::uint8_t> view(actual);
  chunked.apply(view.subspan(0, 13));
  chunked.apply(view.subspan(13, 100));
  chunked.apply(view.subspan(113));
  EXPECT_EQ(actual, expected);
}

TEST(StreamCipher, EmptyInputIsNoop) {
  StreamCipher c(test_key(9));
  EXPECT_TRUE(c.transform({}).empty());
}

TEST(StreamCipher, KeystreamLooksBalanced) {
  // XOR of zeros exposes the raw keystream; its bit density should be ~50%.
  const util::Bytes zeros(4096, 0);
  StreamCipher c(test_key(3), 99);
  const auto stream = c.transform(zeros);
  std::size_t ones = 0;
  for (auto byte : stream) ones += static_cast<std::size_t>(__builtin_popcount(byte));
  const double density = static_cast<double>(ones) / (4096.0 * 8.0);
  EXPECT_NEAR(density, 0.5, 0.02);
}

// Known answers captured from the cipher as first written (a fresh
// HMAC-SHA256 per keystream block, portable SHA-256 kernel).  The tests
// above pass for any self-consistent keystream; these fail if a single
// byte moves.

/// Key bytes 0x00..0x1f.
StreamCipher::Key counting_key() {
  StreamCipher::Key k;
  for (std::size_t i = 0; i < k.size(); ++i) k[i] = static_cast<std::uint8_t>(i);
  return k;
}

constexpr std::uint64_t kKatNonce = 0x0123456789abcdefULL;

// Keystream for (counting_key(), kKatNonce), one line per 32-byte block.
constexpr const char* kKatKeystream1000 =
    "036db83fe315d7eb4877cbaadbe5dabfa163c7afe7d5d12f5501b2a2118abf27"
    "31a5da2f6167e01e129dcb5079bde8c14919027d5a44a44dcad361958ef7225d"
    "5cf6f5873c7179fb0c62ac3622eaa8d48c479459b635e15956cd2fb288aac3a4"
    "e9fa022b189cebe9d0307e8f5f6aadcb256ce6f3c381264d32a598c2785ee426"
    "fbd459ec01e6ede6cc5601c719b31cf71ae65ab2243cb25d54211579d6ce7bc0"
    "255b53f4d6e6791d951a874b14f05ad053a4ae3dffa7c4bd5f8a87f638818924"
    "8fda6618b067fd21859909091dae776100666cae29aeaa794b57270855d43e6a"
    "410540c816b0f8718d60414b7f3c0b4ee283a0361c2fb56c9a2307ba699f30a2"
    "ffce4e40f7ba6ae870d9f46c00f1fc89373f89fe3f61f6e3c3cb6acd3d6de928"
    "cd6dcdf6a9caaaa41bee40c5dc7231cfb21817bcd2d54baef22fee4cbbec0078"
    "430a8acb59fd7ccc69c4b66bcfd16594d50bf1e73dd9865725535ababce6422f"
    "1f9e24cf3f7e12d0f179f3ce870651cb195d60647d70dd24cd41e13b6dc961df"
    "7ee36a1facfe4dcd61478fc9eb20f2d05d1aff8d524ac2b86026a70c85a195cc"
    "d26458eacbaab8c74cf43a8b54d09d540cc5363b5a83eac3e84146a474e14c3b"
    "4c15516af2cf0525269a527a980ea06244ce4f88811c124da11c8efa2a115c38"
    "a117a8e9cb958bb686eb1b1396aa85d8cf8acfed25f32bf18b40ab603d4cf62c"
    "71e4c2e241f111a1422b753f5ea57de329b5571b272827caf1ea389ea3b7460d"
    "48e8c64d8d7d868d22546c812523f60b1d4fa87cb7c32dbfe9b0b493b0674cc2"
    "112f41e7605af49416ae487901b7353a1ce8d192e94296ad28dc9c4cfcb642fa"
    "54f6d9f687a5f27c029c20e6821fa5f6d80e858c1de9fb4875bca43249bb8815"
    "413d06947b3efcf459f102b159923a9d72abbe79773ec1b7200fb9b9da522a6d"
    "64c8a27eb27b6816ab8ff6a6704682f4d52f3bafdb9df06a5767b823d3bf4d3f"
    "174edf46ead4235a08085acf97ae5c82f6807e3c9795f049a36f14979a1b6efa"
    "4c5955919e09fe0178b66423c0a517b1b77c2c3ad2eb0dc4caea8ef7f9f4aac6"
    "4cffd56414a8030d4e1b2464f825b6004fb756780fbbd03c4b1814e12a51697e"
    "88ba31696f116505748e7b2406f23cdaf1c5418be2f1fe6d42fa5af6f57f48f1"
    "2626fc777ea96f2f8d38e2a5bbc8f455838600899d2e9c88a7c01e1e277a9276"
    "1b3262067adc0ce1a818ea70a9bb6a42739ba4b708407e6c13535bd17ab27990"
    "3098fd6a010e4d5a79177cf3b10787e0630ea46116bfee0a72985e967571f960"
    "95a4944119a959c39516d7f965ef00d5022349e7d3e30b4e48f86abd52e8915e"
    "fe083a892c01e37f5ae937e47b83ae7ac05188da96714c97ea5ecfca8ffac4b0"
    "a8b8025c9143920d";

TEST(StreamCipherKat, KeystreamAroundBlockBoundaries) {
  const std::string expected = kKatKeystream1000;
  ASSERT_EQ(expected.size(), 2000u);
  for (std::size_t len : {0u, 31u, 32u, 33u, 64u, 65u, 1000u}) {
    StreamCipher cipher(counting_key(), kKatNonce);
    EXPECT_EQ(util::to_hex(cipher.transform(util::Bytes(len, 0))),
              expected.substr(0, 2 * len))
        << "len " << len;
  }
}

TEST(StreamCipherKat, HybridEncryptionOfSeededKeyAndRng) {
  util::Rng rng(2024);
  const auto pair = rsa_generate(rng, 64);
  util::Bytes data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto wire = rsa_encrypt_bytes(rng, pair.pub, data);
  // blob(c0) || blob(ct) || blob(mac): 8-byte KEM value, 100-byte body,
  // 16-byte tag.
  EXPECT_EQ(util::to_hex(wire),
            "080000001cb980983a0ca79a64000000f631c83477b55862cc881405ee8b5669"
            "28a4cd34ec625b30520ffe56be50893ac767be128f2c41c1d021697dbf3d459b"
            "328faa122a8e7e67e3caff38f3e549137bdea75f56bdaf3cb854834fa2aec677"
            "9de6e27fce6e68b5ba3aea14cb3241bc0c5616e710000000f89cb015887d855b"
            "4d81aa552d5c76a1");
  EXPECT_EQ(rsa_decrypt_bytes(pair.priv, wire), data);
}

}  // namespace
}  // namespace hirep::crypto
