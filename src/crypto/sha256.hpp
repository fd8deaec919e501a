// SHA-256 (FIPS 180-4) from scratch.  Used as the PRF/KDF underlying the
// hybrid onion-layer cipher and everywhere a modern hash is preferable to
// the paper's SHA-1 nodeId binding.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.hpp"

namespace hirep::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(const std::string& s);
  Digest finish();

  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(const std::string& s);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// HMAC-SHA256 (RFC 2104) keyed once.  The constructor absorbs K⊕ipad and
/// K⊕opad into two hash states (the midstates); mac() resumes copies of
/// them, so a MAC over an n-byte message costs ceil((n + 9) / 64) + 1
/// compressions instead of that plus two.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  Sha256::Digest mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// One-shot HMAC-SHA256: HmacSha256(key).mac(message).
Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);

}  // namespace hirep::crypto
