// SHA-1 against the FIPS 180-1 reference vectors, and the two compression
// functions (portable rounds, x86 SHA extensions) against each other.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha1.h"

namespace past {
namespace {

// SHA-1 of `message` through one compression function: the FIPS padding
// (0x80, zeros, 64-bit big-endian bit length) built here, independent of
// the Sha1 class, and every block handed over in one call.
Sha1Digest DigestWith(sha1_internal::CompressFn compress, const std::string& message) {
  std::string padded = message;
  padded.push_back(static_cast<char>(0x80));
  while (padded.size() % 64 != 56) {
    padded.push_back('\0');
  }
  const uint64_t bit_len = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<char>(bit_len >> (56 - 8 * i)));
  }
  uint32_t state[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  compress(state, reinterpret_cast<const uint8_t*>(padded.data()), padded.size() / 64);
  Sha1Digest digest;
  for (size_t i = 0; i < 20; ++i) {
    digest[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

struct Vector {
  std::string message;
  const char* hex;
};

std::vector<Vector> FipsVectors() {
  return {{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
          {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
          {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
           "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
          {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"}};
}

// Random lengths 0-300 bytes (one to six blocks after padding) of random
// bytes, from a fixed seed.
std::vector<std::string> RandomMessages() {
  Rng rng(180);
  std::vector<std::string> messages;
  for (int i = 0; i < 600; ++i) {
    std::string m(static_cast<size_t>(i % 301), '\0');
    for (char& c : m) {
      c = static_cast<char>(rng.NextU64());
    }
    messages.push_back(std::move(m));
  }
  return messages;
}

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha1::Hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha1::Hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, LongerVector) {
  EXPECT_EQ(DigestToHex(Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(DigestToHex(Sha1::Hash(input)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, PaddingAroundBlockBoundaries) {
  // 55 and 119 (64 + 55) bytes leave exactly room in the last block for
  // 0x80 and the 8-byte length; 56 and 63 spill the padding into a second
  // block; 64 pads a block of its own. Expected digests computed with
  // Python's hashlib: hashlib.sha1(b"a" * n).hexdigest().
  struct Case {
    size_t n;
    const char* hex;
  };
  for (const Case& c : std::vector<Case>{{55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
                                         {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
                                         {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
                                         {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
                                         {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"}}) {
    EXPECT_EQ(DigestToHex(Sha1::Hash(std::string(c.n, 'a'))), c.hex) << "n=" << c.n;
  }
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string data = "The quick brown fox jumps over the lazy dog";
  Sha1 ctx;
  for (char c : data) {
    ctx.Update(&c, 1);
  }
  EXPECT_EQ(ctx.Final(), Sha1::Hash(data));
}

TEST(Sha1Test, IncrementalBlockBoundaries) {
  // Exercise buffering across the 64-byte block boundary.
  std::string data(200, 'x');
  for (size_t split = 1; split < 130; split += 7) {
    Sha1 ctx;
    ctx.Update(data.data(), split);
    ctx.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(ctx.Final(), Sha1::Hash(data)) << "split=" << split;
  }
}

TEST(Sha1Test, ResetReusesContext) {
  Sha1 ctx;
  ctx.Update("garbage");
  (void)ctx.Final();
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(DigestToHex(ctx.Final()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, PortableRoundsMatchFipsVectors) {
  for (const Vector& v : FipsVectors()) {
    EXPECT_EQ(DigestToHex(DigestWith(sha1_internal::CompressPortable, v.message)), v.hex)
        << "length " << v.message.size();
  }
}

TEST(Sha1Test, PortableRoundsMatchSha1OnRandomLengths) {
  for (const std::string& m : RandomMessages()) {
    EXPECT_EQ(DigestWith(sha1_internal::CompressPortable, m), Sha1::Hash(m))
        << "length " << m.size();
  }
}

TEST(Sha1Test, HardwareRoundsMatchPortable) {
  const sha1_internal::CompressFn hardware = sha1_internal::HardwareCompress();
  if (hardware == nullptr) {
    GTEST_SKIP() << "CPUID reports no SHA extensions; only the portable rounds run here";
  }
  for (const Vector& v : FipsVectors()) {
    EXPECT_EQ(DigestToHex(DigestWith(hardware, v.message)), v.hex)
        << "length " << v.message.size();
  }
  for (const std::string& m : RandomMessages()) {
    EXPECT_EQ(DigestWith(hardware, m), DigestWith(sha1_internal::CompressPortable, m))
        << "length " << m.size();
  }
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::Hash("file-a"), Sha1::Hash("file-b"));
}

}  // namespace
}  // namespace past
