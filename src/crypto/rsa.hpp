// RSA over our own BigInt: key generation, raw modexp primitives, hybrid
// (KEM + stream cipher) byte encryption, and hash-then-sign signatures.
//
// The paper's protocols (§3.3, §3.5) use two RSA key pairs per peer:
//   (SP, SR)  signature pair   — authenticity; nodeId = SHA1(SP)
//   (AP, AR)  anonymity pair   — onion layer encryption
// Key size is a parameter: tests exercise 256–512 bits, simulations
// default to 64 bits (sim::Params::rsa_bits; a bare HirepOptions uses 128)
// so a thousand key generations cost milliseconds.  The code path is
// identical at any size.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/bigint.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {

struct RsaPublicKey {
  BigInt n;  ///< modulus
  BigInt e;  ///< public exponent

  util::Bytes serialize() const;
  static RsaPublicKey deserialize(std::span<const std::uint8_t> data);
  bool operator==(const RsaPublicKey&) const = default;
};

struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;  ///< private exponent
  BigInt p;
  BigInt q;
  // CRT residues (d_p = d mod p-1, d_q = d mod q-1, q_inv = q^{-1} mod p).
  // Zero when the key was loaded without factors; private-key operations
  // then fall back to the single full-width exponentiation.
  BigInt d_p;
  BigInt d_q;
  BigInt q_inv;

  RsaPublicKey public_key() const { return {n, e}; }

  /// True when the CRT residues are populated and private-key operations
  /// take the two-half-exponentiations fast path.
  bool has_crt() const noexcept {
    return !p.is_zero() && !q.is_zero() && !d_p.is_zero() && !d_q.is_zero() &&
           !q_inv.is_zero();
  }

  /// Computes d_p/d_q/q_inv from (d, p, q).  No-op when the factors are
  /// missing.  The residues are derived against the stored order of p and
  /// q, so a key with swapped factors still signs identically.
  void derive_crt();
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates an RSA key pair with modulus of roughly `bits` bits.
/// bits must be >= 32.  The public exponent is 65537 when possible, else
/// the smallest odd e >= 3 coprime to phi.
RsaKeyPair rsa_generate(util::Rng& rng, unsigned bits);

/// Raw primitives (m must be < n).
BigInt rsa_encrypt_raw(const RsaPublicKey& key, const BigInt& m);
BigInt rsa_decrypt_raw(const RsaPrivateKey& key, const BigInt& c);

/// Authenticated hybrid encryption of arbitrary-length data:
///   c0 = (r)^e mod n for random r;  Kc = SHA256(r||0), Km = SHA256(r||1)
///   ct = StreamCipher_Kc(data);  mac = HMAC_Km(ct)[0..16)
/// Output framing: blob(c0) || blob(ct) || blob(mac).
util::Bytes rsa_encrypt_bytes(util::Rng& rng, const RsaPublicKey& key,
                              std::span<const std::uint8_t> data);

/// Inverse of rsa_encrypt_bytes; nullopt on malformed input.
std::optional<util::Bytes> rsa_decrypt_bytes(const RsaPrivateKey& key,
                                             std::span<const std::uint8_t> data);

/// Hash-then-sign: s = H(data) mod n, signature = s^d mod n.
util::Bytes rsa_sign(const RsaPrivateKey& key, std::span<const std::uint8_t> data);

/// Verifies a signature produced by rsa_sign.
bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> data,
                std::span<const std::uint8_t> signature);

}  // namespace hirep::crypto
