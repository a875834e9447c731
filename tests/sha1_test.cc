// SHA-1 against the FIPS 180-1 reference vectors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crypto/sha1.h"

namespace past {
namespace {

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

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::Hash("file-a"), Sha1::Hash("file-b"));
}

}  // namespace
}  // namespace past
