// Tests for the simulation-grade RSA layer and modular arithmetic.
#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/crypto/certificates.h"
#include "src/crypto/keys.h"
#include "src/crypto/sha1.h"
#include "src/crypto/smartcard.h"
#include "src/past/past_node.h"

namespace past {
namespace {

TEST(ModArithTest, ModMul) {
  EXPECT_EQ(ModMul(7, 9, 5), 3u);
  // Values that would overflow 64-bit multiplication.
  uint64_t big = 0xFFFFFFFFFFFFFFC5ULL;
  EXPECT_EQ(ModMul(big - 1, big - 1, big), 1u);
}

TEST(ModArithTest, ModPow) {
  EXPECT_EQ(ModPow(2, 10, 1000), 24u);
  EXPECT_EQ(ModPow(3, 0, 7), 1u);
  // Fermat: a^(p-1) = 1 mod p.
  uint64_t p = 1000000007ULL;
  EXPECT_EQ(ModPow(12345, p - 1, p), 1u);
}

// ModPow against square-and-multiply with a 128-bit `%` at every step, over
// random odd moduli (the Montgomery path below 2^63), even moduli and
// moduli at or above 2^63 (the `%` path), and bases at or above m.
TEST(ModArithTest, ModPowMatchesReferenceModel) {
  auto reference = [](uint64_t base, uint64_t exp, uint64_t m) {
    unsigned __int128 result = 1 % m;
    unsigned __int128 b = base % m;
    for (; exp > 0; exp >>= 1) {
      if (exp & 1) {
        result = result * b % m;
      }
      b = b * b % m;
    }
    return static_cast<uint64_t>(result);
  };
  Rng rng(2001);
  for (int i = 0; i < 20000; ++i) {
    const int bits = 1 + static_cast<int>(rng.NextU64() % 64);
    uint64_t m = bits == 64 ? rng.NextU64() : rng.NextU64() & ((1ULL << bits) - 1);
    m = m == 0 ? 1 : m;
    if (i % 2 == 0) {
      m |= 1;  // half the cases odd
    }
    const uint64_t base = i % 3 == 0 ? rng.NextU64() : rng.NextU64() % m;
    const uint64_t exp = i % 5 == 0 ? rng.NextU64() % 70000 : rng.NextU64();
    ASSERT_EQ(ModPow(base, exp, m), reference(base, exp, m))
        << "base " << base << " exp " << exp << " m " << m;
  }
  for (uint64_t m : {uint64_t{1}, uint64_t{2}, uint64_t{3}, (uint64_t{1} << 63) - 25,
                     (uint64_t{1} << 63) + 1, ~uint64_t{0}}) {
    for (uint64_t base : {uint64_t{0}, uint64_t{1}, m - 1, m, ~uint64_t{0}}) {
      for (uint64_t exp : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{65537}, ~uint64_t{0}}) {
        EXPECT_EQ(ModPow(base, exp, m), reference(base, exp, m))
            << "base " << base << " exp " << exp << " m " << m;
      }
    }
  }
}

TEST(PrimalityTest, SmallNumbers) {
  EXPECT_FALSE(IsPrime(0));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(4));
  EXPECT_TRUE(IsPrime(97));
  EXPECT_FALSE(IsPrime(91));  // 7 * 13
}

TEST(PrimalityTest, KnownLargePrimes) {
  EXPECT_TRUE(IsPrime(1000000007ULL));
  EXPECT_TRUE(IsPrime(2147483647ULL));  // 2^31 - 1, Mersenne
  EXPECT_FALSE(IsPrime(2147483647ULL * 3));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(IsPrime(561));
}

TEST(KeyPairTest, SignVerifyRoundTrip) {
  Rng rng(42);
  KeyPair keys = KeyPair::Generate(rng);
  Signature sig = keys.Sign(Sha1::Hash("hello past"));
  EXPECT_TRUE(KeyPair::Verify(keys.public_key(), Sha1::Hash("hello past"), sig));
}

TEST(KeyPairTest, TamperedMessageFails) {
  Rng rng(43);
  KeyPair keys = KeyPair::Generate(rng);
  Signature sig = keys.Sign(Sha1::Hash("original"));
  EXPECT_FALSE(KeyPair::Verify(keys.public_key(), Sha1::Hash("tampered"), sig));
}

TEST(KeyPairTest, TamperedSignatureFails) {
  Rng rng(44);
  KeyPair keys = KeyPair::Generate(rng);
  Signature sig = keys.Sign(Sha1::Hash("message"));
  sig.value ^= 1;
  EXPECT_FALSE(KeyPair::Verify(keys.public_key(), Sha1::Hash("message"), sig));
}

TEST(KeyPairTest, WrongKeyFails) {
  Rng rng(45);
  KeyPair a = KeyPair::Generate(rng);
  KeyPair b = KeyPair::Generate(rng);
  Signature sig = a.Sign(Sha1::Hash("message"));
  EXPECT_FALSE(KeyPair::Verify(b.public_key(), Sha1::Hash("message"), sig));
}

TEST(KeyPairTest, DistinctKeysGenerated) {
  Rng rng(46);
  KeyPair a = KeyPair::Generate(rng);
  KeyPair b = KeyPair::Generate(rng);
  EXPECT_NE(a.public_key().modulus, b.public_key().modulus);
}

// The CRT signature is h^d mod n: it is below n, and raising it to e gives
// back h. Since x -> x^e permutes Z_n, h has exactly one such preimage, so
// these two checks pin every signature to the textbook value.
TEST(KeyPairTest, CrtSignaturesAreTheUniqueRsaPreimage) {
  Rng rng(3000);
  for (int i = 0; i < 3000; ++i) {
    KeyPair keys = KeyPair::Generate(rng);
    const uint64_t n = keys.public_key().modulus;
    Sha1Digest digest;
    for (uint8_t& byte : digest) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    if (i % 100 == 0) {
      // A digest whose leading eight bytes are n itself reduces to h = 0.
      for (int b = 0; b < 8; ++b) {
        digest[static_cast<size_t>(b)] = static_cast<uint8_t>(n >> (56 - 8 * b));
      }
    }
    const Signature sig = keys.Sign(digest);
    ASSERT_LT(sig.value, n) << "key " << i;
    ASSERT_TRUE(KeyPair::Verify(keys.public_key(), digest, sig)) << "key " << i;
  }
}

TEST(KeyPairTest, EmptyKeyNeverVerifies) {
  PublicKey empty;
  EXPECT_FALSE(KeyPair::Verify(empty, Sha1::Hash("anything"), Signature{123}));
}

// Pins the exact bytes the crypto layer produces: 100 owner cards and 100
// storing nodes from fixed seeds, 10 files per owner, so 1,000 fileIds,
// each with its file-certificate, store-receipt, reclaim-certificate and
// reclaim-receipt signature, folded into one SHA-1. Any change to key
// generation, signing, the signed byte sequences or fileId derivation moves
// the digest; a faster implementation of the same arithmetic does not.
TEST(KeyPairTest, SignaturesAndFileIdsPinned) {
  Rng owner_rng(0x5160);
  Rng node_rng(0x5161);
  PastConfig config;
  Sha1 fold;
  auto fold_u64 = [&fold](uint64_t v) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
    }
    fold.Update(bytes, sizeof(bytes));
  };
  int verified = 0;
  for (int owner_index = 0; owner_index < 100; ++owner_index) {
    Smartcard owner(owner_rng, 1ull << 40);
    PastNode node(NodeId(owner_rng.NextU64(), owner_rng.NextU64()), config, 1ull << 30, node_rng);
    fold_u64(owner.public_key().modulus);
    fold_u64(node.card().public_key().modulus);
    for (int f = 0; f < 10; ++f) {
      std::string name = "owner-" + std::to_string(owner_index) + "/file-" + std::to_string(f);
      uint64_t salt = owner_rng.NextU64();
      uint64_t size = owner_rng.NextU64() % 1'000'000;
      auto cert = owner.IssueFileCertificate(name, salt, size, 5, Sha1::Hash(name),
                                             static_cast<uint64_t>(f));
      ASSERT_TRUE(cert.has_value());
      StoreReceipt store = node.MakeStoreReceipt(cert->file_id);
      ReclaimCertificate reclaim = owner.IssueReclaimCertificate(cert->file_id, size);
      ReclaimReceipt reclaimed = node.MakeReclaimReceipt(cert->file_id, size);
      fold.Update(cert->file_id.bytes().data(), cert->file_id.bytes().size());
      fold_u64(cert->signature.value);
      fold_u64(store.signature.value);
      fold_u64(reclaim.signature.value);
      fold_u64(reclaimed.signature.value);
      verified += cert->VerifySignature() + store.Verify() + reclaim.VerifySignature() +
                  reclaimed.Verify();
    }
  }
  EXPECT_EQ(verified, 4000);
  EXPECT_EQ(DigestToHex(fold.Final()), "5a0a2e453aa38039925fed184f91df5cefb6250e");
}

// Property sweep: many keys, many messages.
class KeyPairPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyPairPropertyTest, RoundTripAndTamperDetection) {
  Rng rng(GetParam());
  KeyPair keys = KeyPair::Generate(rng);
  for (int i = 0; i < 10; ++i) {
    std::string msg = "message-" + std::to_string(i);
    Signature sig = keys.Sign(Sha1::Hash(msg));
    EXPECT_TRUE(KeyPair::Verify(keys.public_key(), Sha1::Hash(msg), sig));
    EXPECT_FALSE(KeyPair::Verify(keys.public_key(), Sha1::Hash(msg + "x"), sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyPairPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace past
