#include "src/crypto/smartcard.h"

namespace past {

Smartcard::Smartcard(Rng& rng, uint64_t quota_bytes)
    : keys_(KeyPair::Generate(rng)), quota_total_(quota_bytes), quota_remaining_(quota_bytes) {}

std::optional<FileCertificate> Smartcard::IssueFileCertificate(
    const std::string& file_name, uint64_t salt, uint64_t file_size, uint32_t k,
    const Sha1Digest& content_hash, uint64_t creation_date) {
  uint64_t cost = file_size * k;
  if (cost > quota_remaining_) {
    return std::nullopt;
  }
  quota_remaining_ -= cost;

  FileCertificate cert;
  cert.file_id = ComputeFileId(file_name, keys_.public_key(), salt);
  cert.content_hash = content_hash;
  cert.replication_factor = k;
  cert.salt = salt;
  cert.creation_date = creation_date;
  cert.owner = keys_.public_key();
  cert.signature = keys_.Sign(cert.SignedDigest());
  return cert;
}

void Smartcard::RefundInsert(uint64_t file_size, uint32_t k) {
  uint64_t refund = file_size * k;
  quota_remaining_ = std::min(quota_total_, quota_remaining_ + refund);
}

ReclaimCertificate Smartcard::IssueReclaimCertificate(const FileId& file_id, uint64_t date) const {
  ReclaimCertificate cert;
  cert.file_id = file_id;
  cert.date = date;
  cert.owner = keys_.public_key();
  cert.signature = keys_.Sign(cert.SignedDigest());
  return cert;
}

bool Smartcard::CreditReclaim(const ReclaimReceipt& receipt) {
  if (!receipt.Verify()) {
    return false;
  }
  quota_remaining_ = std::min(quota_total_, quota_remaining_ + receipt.reclaimed_bytes);
  return true;
}

}  // namespace past
