// PAST certificates (paper section 2.2).
//
// Every insert produces a file certificate signed by the owner; every storing
// node returns a signed store receipt; reclaim operations carry a reclaim
// certificate and yield reclaim receipts. These are the objects that let
// storage nodes verify authenticity and let clients verify that k replicas
// were actually created.
#ifndef SRC_CRYPTO_CERTIFICATES_H_
#define SRC_CRYPTO_CERTIFICATES_H_

#include <cstdint>
#include <string>

#include "src/common/file_id.h"
#include "src/common/node_id.h"
#include "src/crypto/keys.h"
#include "src/crypto/sha1.h"

namespace past {

// Computes a fileId: SHA-1 of the file's textual name, the owner's public
// key, and a salt (paper section 2.2). Re-salting during file diversion
// changes only `salt`.
FileId ComputeFileId(const std::string& name, const PublicKey& owner, uint64_t salt);

// Signed by the owner at insert time. Travels with the file and is stored by
// every replica holder.
struct FileCertificate {
  FileId file_id;
  Sha1Digest content_hash = {};
  uint32_t replication_factor = 0;  // k
  uint64_t salt = 0;
  uint64_t creation_date = 0;
  PublicKey owner;
  Signature signature;

  // SHA-1 of the canonical byte sequence the signature covers.
  Sha1Digest SignedDigest() const;

  // Checks the owner's signature over the payload.
  bool VerifySignature() const;

  // Checks that `content` matches the certified content hash.
  bool VerifyContent(std::string_view content) const;
};

// Issued by each node that accepted (or diverted) a replica; the client
// verifies k receipts before declaring the insert successful.
struct StoreReceipt {
  FileId file_id;
  NodeId storing_node;
  PublicKey node_key;
  Signature signature;

  Sha1Digest SignedDigest() const;
  bool Verify() const;
};

// Authorizes reclaiming the storage of a file; signed by the owner.
struct ReclaimCertificate {
  FileId file_id;
  uint64_t date = 0;
  PublicKey owner;
  Signature signature;

  Sha1Digest SignedDigest() const;
  bool VerifySignature() const;
};

// Returned by each node that dropped its replica; the client's smartcard
// verifies these before crediting the storage quota.
struct ReclaimReceipt {
  FileId file_id;
  NodeId storing_node;
  uint64_t reclaimed_bytes = 0;
  PublicKey node_key;
  Signature signature;

  Sha1Digest SignedDigest() const;
  bool Verify() const;
};

}  // namespace past

#endif  // SRC_CRYPTO_CERTIFICATES_H_
