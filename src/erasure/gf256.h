// Arithmetic over GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
// Substrate for the Reed-Solomon codec of section 3.6.
#ifndef SRC_ERASURE_GF256_H_
#define SRC_ERASURE_GF256_H_

#include <cstdint>

namespace past {

class Gf256 {
 public:
  // Builds the exp/log tables once.
  static const Gf256& Instance();

  uint8_t Add(uint8_t a, uint8_t b) const { return a ^ b; }
  uint8_t Sub(uint8_t a, uint8_t b) const { return a ^ b; }
  uint8_t Mul(uint8_t a, uint8_t b) const;
  uint8_t Div(uint8_t a, uint8_t b) const;  // b must be nonzero
  uint8_t Inv(uint8_t a) const;             // a must be nonzero
  uint8_t Pow(uint8_t a, unsigned e) const;

 private:
  Gf256();

  uint8_t exp_[512];
  uint8_t log_[256];
};

}  // namespace past

#endif  // SRC_ERASURE_GF256_H_
