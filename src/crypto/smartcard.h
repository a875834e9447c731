// Smartcard model (paper section 2.3).
//
// Each PAST user and node holds a smartcard with a private/public key pair.
// The card generates and verifies certificates and maintains the user's
// storage quota: inserts debit size * k, verified reclaim receipts credit the
// quota back. Quotas are how PAST balances storage supply and demand ([16]).
#ifndef SRC_CRYPTO_SMARTCARD_H_
#define SRC_CRYPTO_SMARTCARD_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/crypto/certificates.h"
#include "src/crypto/keys.h"

namespace past {

class Smartcard {
 public:
  // `quota_bytes` is the total replicated storage the holder may consume.
  Smartcard(Rng& rng, uint64_t quota_bytes);

  const PublicKey& public_key() const { return keys_.public_key(); }
  uint64_t quota_remaining() const { return quota_remaining_; }
  uint64_t quota_total() const { return quota_total_; }

  // Issues a signed file certificate, debiting size * k from the quota.
  // Returns nullopt when the quota is insufficient (the insert must not
  // proceed). `content_hash` certifies the file body.
  std::optional<FileCertificate> IssueFileCertificate(const std::string& file_name, uint64_t salt,
                                                      uint64_t file_size, uint32_t k,
                                                      const Sha1Digest& content_hash,
                                                      uint64_t creation_date);

  // Refunds a failed insert (no replicas were retained).
  void RefundInsert(uint64_t file_size, uint32_t k);

  // Issues a signed reclaim certificate for a file this card inserted.
  ReclaimCertificate IssueReclaimCertificate(const FileId& file_id, uint64_t date) const;

  // Verifies a reclaim receipt and credits the quota with the freed bytes.
  // Returns false (no credit) if the receipt does not verify.
  bool CreditReclaim(const ReclaimReceipt& receipt);

  // Signs a payload digest (store receipts on node cards).
  Signature Sign(const Sha1Digest& digest) const { return keys_.Sign(digest); }

 private:
  KeyPair keys_;
  uint64_t quota_total_;
  uint64_t quota_remaining_;
};

}  // namespace past

#endif  // SRC_CRYPTO_SMARTCARD_H_
