// Simulation-grade RSA signatures.
//
// PAST's security architecture (paper section 2.3) rests on smartcard-held
// private keys that sign file certificates, store receipts, and reclaim
// certificates, and on nodeIds/fileIds derived from public keys via SHA-1.
// The evaluation never measures cryptographic cost, so we implement a real
// but deliberately toy-sized textbook RSA (64-bit modulus, e = 65537,
// hash-then-sign over SHA-1). That gives the system genuine issue/verify/
// tamper-detection semantics for tests without pulling in a crypto library.
// It is NOT secure against a real adversary and is documented as a
// substitution in DESIGN.md.
//
// Signing and verification take the message's SHA-1 digest; callers hash
// their canonical byte sequence straight into a Sha1 context. A signature is
// h^d mod n, where h is the digest's first eight bytes (big-endian) reduced
// mod n. Signing computes it by CRT over the two 31-bit primes with
// per-key Montgomery constants (R = 2^32, so every product fits in 64 bits);
// verification uses 64-bit Montgomery exponentiation. Primality testing
// below 2^32 (every key candidate) is trial division by the primes below
// 256 and Miller-Rabin with witnesses {2, 7, 61} in 32-bit Montgomery form,
// which is exact there; larger n keep seven witnesses and 64-bit
// exponentiation.
#ifndef SRC_CRYPTO_KEYS_H_
#define SRC_CRYPTO_KEYS_H_

#include <array>
#include <cstdint>

#include "src/common/rng.h"
#include "src/crypto/sha1.h"

namespace past {

struct PublicKey {
  uint64_t modulus = 0;   // n = p * q
  uint64_t exponent = 0;  // e

  // Canonical byte encoding (big-endian modulus, then exponent), hashed
  // into fileIds and signed payloads.
  std::array<uint8_t, 16> ToBytes() const;

  friend bool operator==(const PublicKey& a, const PublicKey& b) = default;
};

struct Signature {
  uint64_t value = 0;

  friend bool operator==(const Signature& a, const Signature& b) = default;
};

// An RSA key pair. Generation picks two random 31-bit primes.
class KeyPair {
 public:
  // Generates a fresh key pair using randomness from `rng`.
  static KeyPair Generate(Rng& rng);

  const PublicKey& public_key() const { return public_key_; }

  // Signs a message digest with the private exponent.
  Signature Sign(const Sha1Digest& digest) const;

  // Verifies a signature over a message digest against a public key.
  static bool Verify(const PublicKey& key, const Sha1Digest& digest, const Signature& sig);

 private:
  // One prime's half of the CRT signature: the prime, the private exponent
  // reduced mod (prime - 1), and the prime's Montgomery constants.
  struct PrimeHalf {
    uint32_t prime = 0;
    uint32_t exponent = 0;  // d mod (prime - 1)
    uint32_t neg_inv = 0;   // -prime^-1 mod 2^32
    uint32_t r3 = 0;        // 2^96 mod prime, i.e. R^3 with R = 2^32

    // t R^-1 mod prime, for t < prime * R.
    uint32_t Reduce(uint64_t t) const;
    // a b R^-1 mod prime, for a, b < prime.
    uint32_t Mul(uint32_t a, uint32_t b) const;
    // h R mod prime, for h < prime * R.
    uint32_t ToMontgomery(uint64_t h) const;
  };

  KeyPair(PublicKey pub, uint64_t p, uint64_t q, uint64_t d);

  PublicKey public_key_;
  PrimeHalf p_;
  PrimeHalf q_;
  uint32_t q_inv_ = 0;  // q^-1 R mod p (Montgomery form), for the CRT recombination
};

// Modular arithmetic helpers (exposed for tests). ModPow works for every
// m > 0; odd moduli below 2^63 take the Montgomery path. IsPrime is exact
// for n < 3.4e14, which covers every key candidate.
uint64_t ModMul(uint64_t a, uint64_t b, uint64_t m);
uint64_t ModPow(uint64_t base, uint64_t exp, uint64_t m);
bool IsPrime(uint64_t n);

}  // namespace past

#endif  // SRC_CRYPTO_KEYS_H_
