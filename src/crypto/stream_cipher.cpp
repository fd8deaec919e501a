#include "crypto/stream_cipher.hpp"

#include <algorithm>

namespace hirep::crypto {

StreamCipher::StreamCipher(const Key& key, std::uint64_t nonce)
    : prf_(key), nonce_(nonce) {}

void StreamCipher::refill() {
  // block = HMAC(key, nonce || counter); HMAC as PRF in counter mode.  Both
  // words are little-endian, byte for byte as ByteWriter::u64 writes them.
  std::array<std::uint8_t, 16> input;
  for (int i = 0; i < 8; ++i) {
    input[i] = static_cast<std::uint8_t>(nonce_ >> (8 * i));
    input[8 + i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
  }
  ++counter_;
  block_ = prf_.mac(input);
  block_used_ = 0;
}

void StreamCipher::apply(std::span<std::uint8_t> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    if (block_used_ == block_.size()) refill();
    const std::size_t n =
        std::min(data.size() - done, block_.size() - block_used_);
    for (std::size_t i = 0; i < n; ++i) {
      data[done + i] ^= block_[block_used_ + i];
    }
    done += n;
    block_used_ += n;
  }
}

util::Bytes StreamCipher::transform(std::span<const std::uint8_t> data) {
  util::Bytes out(data.begin(), data.end());
  apply(out);
  return out;
}

}  // namespace hirep::crypto
