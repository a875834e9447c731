#include "src/crypto/keys.h"

#include <array>

#include "src/common/uint128.h"

namespace past {
namespace {

constexpr uint64_t kPublicExponent = 65537;

// Deterministic Miller-Rabin witnesses, sufficient for all n < 3.3e24.
constexpr std::array<uint64_t, 7> kWitnesses = {2, 3, 5, 7, 11, 13, 17};

uint64_t ReduceDigestTo64(const Sha1Digest& digest, uint64_t modulus) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | digest[static_cast<size_t>(i)];
  }
  // Keep strictly below the modulus so the RSA permutation applies.
  return v % modulus;
}

uint64_t RandomPrime(Rng& rng, int bits) {
  for (;;) {
    uint64_t candidate = rng.NextU64() & ((1ULL << bits) - 1);
    candidate |= (1ULL << (bits - 1)) | 1ULL;  // force top bit and oddness
    if (IsPrime(candidate)) {
      return candidate;
    }
  }
}

// Extended Euclid for the modular inverse of e mod phi.
uint64_t ModInverse(uint64_t e, uint64_t phi) {
  int64_t t = 0, new_t = 1;
  int64_t r = static_cast<int64_t>(phi), new_r = static_cast<int64_t>(e);
  while (new_r != 0) {
    int64_t q = r / new_r;
    int64_t tmp = t - q * new_t;
    t = new_t;
    new_t = tmp;
    tmp = r - q * new_r;
    r = new_r;
    new_r = tmp;
  }
  if (r != 1) {
    return 0;  // not invertible; caller retries with other primes
  }
  if (t < 0) {
    t += static_cast<int64_t>(phi);
  }
  return static_cast<uint64_t>(t);
}

// Montgomery arithmetic modulo an odd m < 2^63 with R = 2^64: a product of
// two residues is below 2^126, and adding mu * m keeps the sum below 2^128,
// so one 128-bit multiply-add and a shift replace the 128-bit `%`.
class Montgomery64 {
 public:
  explicit Montgomery64(uint64_t m) : m_(m) {
    uint64_t inv = m;  // m * m = 1 (mod 8): correct to 3 bits
    for (int i = 0; i < 5; ++i) {
      inv *= 2 - m * inv;  // each Newton step doubles the correct bits
    }
    neg_inv_ = 0 - inv;
    one_ = (0 - m) % m;  // 2^64 mod m
    r2_ = static_cast<uint64_t>(static_cast<uint128>(one_) * one_ % m);
  }

  // t * R^-1 mod m, for t < m * R.
  uint64_t Reduce(uint128 t) const {
    uint64_t mu = static_cast<uint64_t>(t) * neg_inv_;
    uint64_t u = static_cast<uint64_t>((t + static_cast<uint128>(mu) * m_) >> 64);
    return u >= m_ ? u - m_ : u;
  }
  uint64_t Mul(uint64_t a, uint64_t b) const { return Reduce(static_cast<uint128>(a) * b); }
  uint64_t ToMontgomery(uint64_t a) const { return Mul(a, r2_); }  // a < m
  uint64_t one() const { return one_; }

 private:
  uint64_t m_;
  uint64_t neg_inv_;  // -m^-1 mod 2^64
  uint64_t one_;      // R mod m
  uint64_t r2_;       // R^2 mod m
};

}  // namespace

// With prime < 2^31 and R = 2^32, t + mu * prime < 2^64: every intermediate
// fits in 64 bits.
inline uint32_t KeyPair::PrimeHalf::Reduce(uint64_t t) const {
  uint32_t mu = static_cast<uint32_t>(t) * neg_inv;
  uint64_t u = (t + static_cast<uint64_t>(mu) * prime) >> 32;
  return static_cast<uint32_t>(u >= prime ? u - prime : u);
}

inline uint32_t KeyPair::PrimeHalf::Mul(uint32_t a, uint32_t b) const {
  return Reduce(static_cast<uint64_t>(a) * b);
}

inline uint32_t KeyPair::PrimeHalf::ToMontgomery(uint64_t h) const { return Mul(Reduce(h), r3); }

uint64_t ModMul(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(static_cast<uint128>(a) * b % m);
}

uint64_t ModPow(uint64_t base, uint64_t exp, uint64_t m) {
  // Right-to-left square-and-multiply from `one`, with `mul` as the modular
  // product: plain residues or Montgomery forms.
  auto pow = [exp](uint64_t one, uint64_t b, auto mul) mutable {
    uint64_t result = one;
    for (; exp > 0; exp >>= 1) {
      if (exp & 1) {
        result = mul(result, b);
      }
      b = mul(b, b);
    }
    return result;
  };
  base %= m;
  if ((m & 1) == 0 || m >= (1ULL << 63)) {
    return pow(1 % m, base, [m](uint64_t a, uint64_t b) { return ModMul(a, b, m); });
  }
  const Montgomery64 mont(m);
  return mont.Reduce(pow(mont.one(), mont.ToMontgomery(base),
                         [&mont](uint64_t a, uint64_t b) { return mont.Mul(a, b); }));
}

bool IsPrime(uint64_t n) {
  if (n < 2) {
    return false;
  }
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL}) {
    if (n % p == 0) {
      return n == p;
    }
  }
  uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (uint64_t a : kWitnesses) {
    uint64_t x = ModPow(a % n, d, n);
    if (x == 1 || x == n - 1) {
      continue;
    }
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = ModMul(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) {
      return false;
    }
  }
  return true;
}

std::array<uint8_t, 16> PublicKey::ToBytes() const {
  std::array<uint8_t, 16> out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i)] = static_cast<uint8_t>(modulus >> (56 - 8 * i));
    out[static_cast<size_t>(8 + i)] = static_cast<uint8_t>(exponent >> (56 - 8 * i));
  }
  return out;
}

KeyPair KeyPair::Generate(Rng& rng) {
  for (;;) {
    uint64_t p = RandomPrime(rng, 31);
    uint64_t q = RandomPrime(rng, 31);
    if (p == q) {
      continue;
    }
    uint64_t n = p * q;
    uint64_t phi = (p - 1) * (q - 1);
    if (phi % kPublicExponent == 0) {
      continue;  // e must be coprime with phi
    }
    uint64_t d = ModInverse(kPublicExponent, phi);
    if (d == 0) {
      continue;
    }
    return KeyPair(PublicKey{n, kPublicExponent}, p, q, d);
  }
}

KeyPair::KeyPair(PublicKey pub, uint64_t p, uint64_t q, uint64_t d) : public_key_(pub) {
  auto make_half = [d](uint64_t prime) {
    PrimeHalf half;
    half.prime = static_cast<uint32_t>(prime);
    // d * e = 1 (mod prime - 1), so this is never 0: a zero h stays zero.
    half.exponent = static_cast<uint32_t>(d % (prime - 1));
    uint32_t inv = half.prime;  // correct to 3 bits, as in Montgomery64
    for (int i = 0; i < 4; ++i) {
      inv *= 2 - half.prime * inv;
    }
    half.neg_inv = 0 - inv;
    uint64_t r = (1ULL << 32) % prime;
    half.r3 = static_cast<uint32_t>(r * r % prime * r % prime);
    return half;
  };
  p_ = make_half(p);
  q_ = make_half(q);
  // Stored in Montgomery form, so one reduction applies it.
  q_inv_ = static_cast<uint32_t>((ModInverse(q % p, p) << 32) % p);
}

Signature KeyPair::Sign(const Sha1Digest& digest) const {
  // s = h^d mod n by CRT: s_p = h^(d mod p-1) mod p, likewise for q (Fermat;
  // both exponents are nonzero, so h = 0 mod p gives s_p = 0 as it must).
  const uint64_t h = ReduceDigestTo64(digest, public_key_.modulus);
  const PrimeHalf& p = p_;
  const PrimeHalf& q = q_;
  // h < n < p R and q R, so each half maps h straight into its Montgomery
  // form; the form of 1 is R mod prime, R^3 reduced twice.
  uint32_t base_p = p.ToMontgomery(h);
  uint32_t base_q = q.ToMontgomery(h);
  uint32_t acc_p = p.Reduce(p.Reduce(p.r3));
  uint32_t acc_q = q.Reduce(q.Reduce(q.r3));
  // Both halves advance in one right-to-left loop with branch-free selects:
  // the two squaring chains are independent, so the CPU overlaps them.
  for (uint32_t ep = p.exponent, eq = q.exponent; (ep | eq) != 0; ep >>= 1, eq >>= 1) {
    const uint32_t mul_p = p.Mul(acc_p, base_p);
    const uint32_t mul_q = q.Mul(acc_q, base_q);
    acc_p = (ep & 1) != 0 ? mul_p : acc_p;
    acc_q = (eq & 1) != 0 ? mul_q : acc_q;
    base_p = p.Mul(base_p, base_p);
    base_q = q.Mul(base_q, base_q);
  }
  const uint32_t s_p = p.Reduce(acc_p);
  const uint32_t s_q = q.Reduce(acc_q);
  // Garner: s = s_q + q * ((s_p - s_q) q^-1 mod p), which lies in [0, n).
  // Both primes have their top (31st) bit set, so s_q < q < 2p.
  const uint32_t s_q_mod_p = s_q >= p.prime ? s_q - p.prime : s_q;
  const uint32_t diff = s_p >= s_q_mod_p ? s_p - s_q_mod_p : s_p + p.prime - s_q_mod_p;
  return Signature{s_q + static_cast<uint64_t>(q.prime) * p.Mul(diff, q_inv_)};
}

bool KeyPair::Verify(const PublicKey& key, const Sha1Digest& digest, const Signature& sig) {
  if (key.modulus == 0) {
    return false;
  }
  uint64_t h = ReduceDigestTo64(digest, key.modulus);
  return ModPow(sig.value, key.exponent, key.modulus) == h;
}

}  // namespace past
