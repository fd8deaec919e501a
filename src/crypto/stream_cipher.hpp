// HMAC-SHA256 counter-mode stream cipher: keystream block i is
// HMAC-SHA256(key, nonce || i), both little-endian u64.  Onion layers are
// encrypted hybridly: the symmetric key for each layer is wrapped with the
// relay's RSA anonymity key (KEM-style), and the layer body is XORed with
// this keystream.  That matches deployed onion-routing practice and keeps
// layer size linear rather than bounded by the RSA modulus.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace hirep::crypto {

class StreamCipher {
 public:
  static constexpr std::size_t kKeySize = 32;
  using Key = std::array<std::uint8_t, kKeySize>;

  /// nonce distinguishes streams under the same key (e.g. layer index).
  explicit StreamCipher(const Key& key, std::uint64_t nonce = 0);

  /// XORs the keystream into data in place.  Encrypt == decrypt.
  void apply(std::span<std::uint8_t> data);

  /// Convenience: returns the transformed copy.
  util::Bytes transform(std::span<const std::uint8_t> data);

 private:
  void refill();

  HmacSha256 prf_;  ///< keyed once; each refill costs two compressions
  std::uint64_t nonce_;
  std::uint64_t counter_ = 0;
  std::array<std::uint8_t, 32> block_{};
  std::size_t block_used_ = sizeof(block_);
};

}  // namespace hirep::crypto
