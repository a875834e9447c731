#include "src/crypto/sha1.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace past {
namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// The compression function this process uses, chosen on first use.
sha1_internal::CompressFn Compress() {
  static const sha1_internal::CompressFn fn = sha1_internal::HardwareCompress() != nullptr
                                                  ? sha1_internal::HardwareCompress()
                                                  : sha1_internal::CompressPortable;
  return fn;
}

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
      Compress()(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    size_t blocks = len / 64;
    Compress()(h_, p, blocks);
    p += blocks * 64;
    len -= blocks * 64;
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
    Compress()(h_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress()(h_, buffer_, 1);
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

namespace sha1_internal {

void CompressPortable(uint32_t state[5], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[16];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
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

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#undef PAST_SHA1_W
#undef PAST_SHA1_R0
#undef PAST_SHA1_R1
#undef PAST_SHA1_R2
#undef PAST_SHA1_R3
#undef PAST_SHA1_R4

#if defined(__x86_64__)

// The SHA-extensions rounds. sha1rnds4 runs four rounds on the a..d lanes
// with round function `f`, sha1nexte derives the next e from the previous a
// and adds it to four schedule words, and sha1msg1 / xor / sha1msg2 build
// the message schedule four words at a time. E0 and E1 alternate as the
// rounds' e input; MSG0..MSG3 rotate as the 16-word schedule window.
__attribute__((target("sha,ssse3,sse4.1"))) void CompressShaExtensions(uint32_t state[5],
                                                                      const uint8_t* data,
                                                                      size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;
    __m128i e1;
    __m128i msg0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)),
                                    byte_swap);
    __m128i msg1 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)),
                                    byte_swap);
    __m128i msg2 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)),
                                    byte_swap);
    __m128i msg3 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)),
                                    byte_swap);

    // Rounds 0-15: the schedule is the block itself.
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 16-63: four rounds per step, each step finishing the schedule
    // words of the next one and starting those of the two after.
#define PAST_SHA1_NI_STEP(e_in, e_out, m_cur, m_next, m_after, m_last, f) \
  e_in = _mm_sha1nexte_epu32(e_in, m_cur);                                  \
  e_out = abcd;                                                             \
  m_next = _mm_sha1msg2_epu32(m_next, m_cur);                               \
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, f);                                \
  m_last = _mm_sha1msg1_epu32(m_last, m_cur);                               \
  m_after = _mm_xor_si128(m_after, m_cur);
    PAST_SHA1_NI_STEP(e0, e1, msg0, msg1, msg2, msg3, 0);  // 16-19
    PAST_SHA1_NI_STEP(e1, e0, msg1, msg2, msg3, msg0, 1);  // 20-23
    PAST_SHA1_NI_STEP(e0, e1, msg2, msg3, msg0, msg1, 1);  // 24-27
    PAST_SHA1_NI_STEP(e1, e0, msg3, msg0, msg1, msg2, 1);  // 28-31
    PAST_SHA1_NI_STEP(e0, e1, msg0, msg1, msg2, msg3, 1);  // 32-35
    PAST_SHA1_NI_STEP(e1, e0, msg1, msg2, msg3, msg0, 1);  // 36-39
    PAST_SHA1_NI_STEP(e0, e1, msg2, msg3, msg0, msg1, 2);  // 40-43
    PAST_SHA1_NI_STEP(e1, e0, msg3, msg0, msg1, msg2, 2);  // 44-47
    PAST_SHA1_NI_STEP(e0, e1, msg0, msg1, msg2, msg3, 2);  // 48-51
    PAST_SHA1_NI_STEP(e1, e0, msg1, msg2, msg3, msg0, 2);  // 52-55
    PAST_SHA1_NI_STEP(e0, e1, msg2, msg3, msg0, msg1, 2);  // 56-59
    PAST_SHA1_NI_STEP(e1, e0, msg3, msg0, msg1, msg2, 3);  // 60-63
#undef PAST_SHA1_NI_STEP

    // Rounds 64-79: the schedule runs out one stage at a time.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    e0 = _mm_sha1nexte_epu32(e0, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

CompressFn HardwareCompress() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_SSSE3) == 0 ||
      (ecx & bit_SSE4_1) == 0) {
    return nullptr;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 || (ebx & bit_SHA) == 0) {
    return nullptr;
  }
  return CompressShaExtensions;
}

#else

CompressFn HardwareCompress() { return nullptr; }

#endif

}  // namespace sha1_internal

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
