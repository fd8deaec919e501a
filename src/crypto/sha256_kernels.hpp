// SHA-256 compression kernels behind Sha256 (private to src/crypto and the
// tests).  Sha256 picks one once, from CPUID; the tests call each directly
// so the portable kernel stays the reference the accelerated one is
// checked against.
#pragma once

#include <cstdint>

namespace hirep::crypto::sha256_kernels {

/// Folds one 64-byte block into the eight-word chaining state (FIPS 180-4
/// §6.2.2).
using Compress = void (*)(std::uint32_t* state, const std::uint8_t* block);

/// Plain C++ kernel: the fallback on every CPU and the test reference.
void compress_portable(std::uint32_t* state, const std::uint8_t* block);

/// The x86 SHA-extensions kernel, or null when the CPU lacks SHA-NI or
/// SSE4.1 or the build does not target x86-64.
Compress sha_ni();

}  // namespace hirep::crypto::sha256_kernels
