#include "src/crypto/sha1.h"

#include <cstring>

namespace past {
namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

}  // namespace

Sha1::Sha1() { Reset(); }

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
  total_bytes_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_bytes_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    ProcessBlock(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Sha1Digest Sha1::Final() {
  uint64_t bit_len = total_bytes_ * 8;
  // Pad in place: 0x80, zeros up to the last 8 bytes of a block, then the
  // big-endian bit length. With fewer than 9 bytes left in the current
  // block the padding spills into a second one.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest[static_cast<size_t>(i * 4 + 0)] = static_cast<uint8_t>(h_[i] >> 24);
    digest[static_cast<size_t>(i * 4 + 1)] = static_cast<uint8_t>(h_[i] >> 16);
    digest[static_cast<size_t>(i * 4 + 2)] = static_cast<uint8_t>(h_[i] >> 8);
    digest[static_cast<size_t>(i * 4 + 3)] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

// Fully unrolled compression function over a circular 16-word schedule.
// Keeping the schedule in 16 words instead of 80 keeps the working set in
// registers/L1, and unrolling by 5 lets the a..e role rotation happen at
// compile time instead of through per-round register shuffles.
#define PAST_SHA1_W(i) \
  (w[(i) & 15] = Rotl32(w[((i) + 13) & 15] ^ w[((i) + 8) & 15] ^ w[((i) + 2) & 15] ^ w[(i) & 15], 1))
#define PAST_SHA1_R0(a, b, c, d, e, i) \
  e += Rotl32(a, 5) + (((c ^ d) & b) ^ d) + 0x5A827999u + w[(i) & 15]; \
  b = Rotl32(b, 30);
#define PAST_SHA1_R1(a, b, c, d, e, i) \
  e += Rotl32(a, 5) + (((c ^ d) & b) ^ d) + 0x5A827999u + PAST_SHA1_W(i); \
  b = Rotl32(b, 30);
#define PAST_SHA1_R2(a, b, c, d, e, i) \
  e += Rotl32(a, 5) + (b ^ c ^ d) + 0x6ED9EBA1u + PAST_SHA1_W(i); \
  b = Rotl32(b, 30);
#define PAST_SHA1_R3(a, b, c, d, e, i) \
  e += Rotl32(a, 5) + (((b | c) & d) | (b & c)) + 0x8F1BBCDCu + PAST_SHA1_W(i); \
  b = Rotl32(b, 30);
#define PAST_SHA1_R4(a, b, c, d, e, i) \
  e += Rotl32(a, 5) + (b ^ c ^ d) + 0xCA62C1D6u + PAST_SHA1_W(i); \
  b = Rotl32(b, 30);

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  PAST_SHA1_R0(a, b, c, d, e, 0);
  PAST_SHA1_R0(e, a, b, c, d, 1);
  PAST_SHA1_R0(d, e, a, b, c, 2);
  PAST_SHA1_R0(c, d, e, a, b, 3);
  PAST_SHA1_R0(b, c, d, e, a, 4);
  PAST_SHA1_R0(a, b, c, d, e, 5);
  PAST_SHA1_R0(e, a, b, c, d, 6);
  PAST_SHA1_R0(d, e, a, b, c, 7);
  PAST_SHA1_R0(c, d, e, a, b, 8);
  PAST_SHA1_R0(b, c, d, e, a, 9);
  PAST_SHA1_R0(a, b, c, d, e, 10);
  PAST_SHA1_R0(e, a, b, c, d, 11);
  PAST_SHA1_R0(d, e, a, b, c, 12);
  PAST_SHA1_R0(c, d, e, a, b, 13);
  PAST_SHA1_R0(b, c, d, e, a, 14);
  PAST_SHA1_R0(a, b, c, d, e, 15);
  PAST_SHA1_R1(e, a, b, c, d, 16);
  PAST_SHA1_R1(d, e, a, b, c, 17);
  PAST_SHA1_R1(c, d, e, a, b, 18);
  PAST_SHA1_R1(b, c, d, e, a, 19);
  PAST_SHA1_R2(a, b, c, d, e, 20);
  PAST_SHA1_R2(e, a, b, c, d, 21);
  PAST_SHA1_R2(d, e, a, b, c, 22);
  PAST_SHA1_R2(c, d, e, a, b, 23);
  PAST_SHA1_R2(b, c, d, e, a, 24);
  PAST_SHA1_R2(a, b, c, d, e, 25);
  PAST_SHA1_R2(e, a, b, c, d, 26);
  PAST_SHA1_R2(d, e, a, b, c, 27);
  PAST_SHA1_R2(c, d, e, a, b, 28);
  PAST_SHA1_R2(b, c, d, e, a, 29);
  PAST_SHA1_R2(a, b, c, d, e, 30);
  PAST_SHA1_R2(e, a, b, c, d, 31);
  PAST_SHA1_R2(d, e, a, b, c, 32);
  PAST_SHA1_R2(c, d, e, a, b, 33);
  PAST_SHA1_R2(b, c, d, e, a, 34);
  PAST_SHA1_R2(a, b, c, d, e, 35);
  PAST_SHA1_R2(e, a, b, c, d, 36);
  PAST_SHA1_R2(d, e, a, b, c, 37);
  PAST_SHA1_R2(c, d, e, a, b, 38);
  PAST_SHA1_R2(b, c, d, e, a, 39);
  PAST_SHA1_R3(a, b, c, d, e, 40);
  PAST_SHA1_R3(e, a, b, c, d, 41);
  PAST_SHA1_R3(d, e, a, b, c, 42);
  PAST_SHA1_R3(c, d, e, a, b, 43);
  PAST_SHA1_R3(b, c, d, e, a, 44);
  PAST_SHA1_R3(a, b, c, d, e, 45);
  PAST_SHA1_R3(e, a, b, c, d, 46);
  PAST_SHA1_R3(d, e, a, b, c, 47);
  PAST_SHA1_R3(c, d, e, a, b, 48);
  PAST_SHA1_R3(b, c, d, e, a, 49);
  PAST_SHA1_R3(a, b, c, d, e, 50);
  PAST_SHA1_R3(e, a, b, c, d, 51);
  PAST_SHA1_R3(d, e, a, b, c, 52);
  PAST_SHA1_R3(c, d, e, a, b, 53);
  PAST_SHA1_R3(b, c, d, e, a, 54);
  PAST_SHA1_R3(a, b, c, d, e, 55);
  PAST_SHA1_R3(e, a, b, c, d, 56);
  PAST_SHA1_R3(d, e, a, b, c, 57);
  PAST_SHA1_R3(c, d, e, a, b, 58);
  PAST_SHA1_R3(b, c, d, e, a, 59);
  PAST_SHA1_R4(a, b, c, d, e, 60);
  PAST_SHA1_R4(e, a, b, c, d, 61);
  PAST_SHA1_R4(d, e, a, b, c, 62);
  PAST_SHA1_R4(c, d, e, a, b, 63);
  PAST_SHA1_R4(b, c, d, e, a, 64);
  PAST_SHA1_R4(a, b, c, d, e, 65);
  PAST_SHA1_R4(e, a, b, c, d, 66);
  PAST_SHA1_R4(d, e, a, b, c, 67);
  PAST_SHA1_R4(c, d, e, a, b, 68);
  PAST_SHA1_R4(b, c, d, e, a, 69);
  PAST_SHA1_R4(a, b, c, d, e, 70);
  PAST_SHA1_R4(e, a, b, c, d, 71);
  PAST_SHA1_R4(d, e, a, b, c, 72);
  PAST_SHA1_R4(c, d, e, a, b, 73);
  PAST_SHA1_R4(b, c, d, e, a, 74);
  PAST_SHA1_R4(a, b, c, d, e, 75);
  PAST_SHA1_R4(e, a, b, c, d, 76);
  PAST_SHA1_R4(d, e, a, b, c, 77);
  PAST_SHA1_R4(c, d, e, a, b, 78);
  PAST_SHA1_R4(b, c, d, e, a, 79);

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

#undef PAST_SHA1_W
#undef PAST_SHA1_R0
#undef PAST_SHA1_R1
#undef PAST_SHA1_R2
#undef PAST_SHA1_R3
#undef PAST_SHA1_R4

Sha1Digest Sha1::Hash(std::string_view data) {
  Sha1 ctx;
  ctx.Update(data);
  return ctx.Final();
}

std::string DigestToHex(const Sha1Digest& digest) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (uint8_t byte : digest) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

}  // namespace past
