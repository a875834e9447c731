// SHA-1 (FIPS 180-1), implemented from scratch.
//
// PAST uses SHA-1 everywhere identifiers are minted: fileIds are the SHA-1 of
// (file name, owner public key, salt), nodeIds the SHA-1 of the node public
// key, and file certificates carry a SHA-1 content hash. SHA-1 is not
// collision-resistant by modern standards; we reproduce the paper's choice
// because identifier uniformity, not adversarial collision resistance, is
// what the evaluated mechanisms depend on.
//
// The compression function has two implementations computing the same
// function: the x86 SHA extensions, used when CPUID reports them, and
// portable unrolled rounds everywhere else. The choice is made once per
// process from CPUID alone.
#ifndef SRC_CRYPTO_SHA1_H_
#define SRC_CRYPTO_SHA1_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>

namespace past {

using Sha1Digest = std::array<uint8_t, 20>;

namespace sha1_internal {

// Runs the SHA-1 compression function over `blocks` consecutive 64-byte
// blocks, updating the five-word chaining state in place.
using CompressFn = void (*)(uint32_t state[5], const uint8_t* data, size_t blocks);

// The portable rounds. Declared here so tests can compare it with the
// hardware path; Sha1 itself dispatches on its own.
void CompressPortable(uint32_t state[5], const uint8_t* data, size_t blocks);

// The SHA-extensions rounds, or null where the CPU lacks SHA, SSSE3 or
// SSE4.1 (and on every non-x86-64 build).
CompressFn HardwareCompress();

}  // namespace sha1_internal

// Incremental SHA-1 context.
class Sha1 {
 public:
  Sha1();

  void Update(const void* data, size_t len);
  void Update(std::string_view data) { Update(data.data(), data.size()); }

  // Finalizes and returns the digest. The context must not be reused after
  // Final() without calling Reset().
  Sha1Digest Final();

  void Reset();

  // One-shot convenience.
  static Sha1Digest Hash(std::string_view data);

 private:
  uint32_t h_[5];
  uint64_t total_bytes_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// Formats a digest as 40 lowercase hex characters.
std::string DigestToHex(const Sha1Digest& digest);

}  // namespace past

#endif  // SRC_CRYPTO_SHA1_H_
