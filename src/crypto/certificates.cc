#include "src/crypto/certificates.h"

namespace past {
namespace {

// The signed byte sequences are fed field by field into a SHA-1 context:
// fixed-width fields big-endian, ids and digests as raw bytes, keys as
// PublicKey::ToBytes().
void HashU64(Sha1& ctx, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
  ctx.Update(bytes, sizeof(bytes));
}

void HashFileId(Sha1& ctx, const FileId& id) { ctx.Update(id.bytes().data(), id.bytes().size()); }

void HashNodeId(Sha1& ctx, const NodeId& id) {
  HashU64(ctx, Uint128High64(id.value()));
  HashU64(ctx, Uint128Low64(id.value()));
}

void HashKey(Sha1& ctx, const PublicKey& key) {
  const std::array<uint8_t, 16> bytes = key.ToBytes();
  ctx.Update(bytes.data(), bytes.size());
}

}  // namespace

FileId ComputeFileId(const std::string& name, const PublicKey& owner, uint64_t salt) {
  Sha1 ctx;
  ctx.Update(name);
  HashKey(ctx, owner);
  HashU64(ctx, salt);
  return FileId(ctx.Final());
}

Sha1Digest FileCertificate::SignedDigest() const {
  Sha1 ctx;
  HashFileId(ctx, file_id);
  ctx.Update(content_hash.data(), content_hash.size());
  HashU64(ctx, replication_factor);
  HashU64(ctx, salt);
  HashU64(ctx, creation_date);
  HashKey(ctx, owner);
  return ctx.Final();
}

bool FileCertificate::VerifySignature() const {
  return KeyPair::Verify(owner, SignedDigest(), signature);
}

bool FileCertificate::VerifyContent(std::string_view content) const {
  return Sha1::Hash(content) == content_hash;
}

Sha1Digest StoreReceipt::SignedDigest() const {
  Sha1 ctx;
  HashFileId(ctx, file_id);
  HashNodeId(ctx, storing_node);
  HashKey(ctx, node_key);
  return ctx.Final();
}

bool StoreReceipt::Verify() const { return KeyPair::Verify(node_key, SignedDigest(), signature); }

Sha1Digest ReclaimCertificate::SignedDigest() const {
  Sha1 ctx;
  HashFileId(ctx, file_id);
  HashU64(ctx, date);
  HashKey(ctx, owner);
  return ctx.Final();
}

bool ReclaimCertificate::VerifySignature() const {
  return KeyPair::Verify(owner, SignedDigest(), signature);
}

Sha1Digest ReclaimReceipt::SignedDigest() const {
  Sha1 ctx;
  HashFileId(ctx, file_id);
  HashNodeId(ctx, storing_node);
  HashU64(ctx, reclaimed_bytes);
  HashKey(ctx, node_key);
  return ctx.Final();
}

bool ReclaimReceipt::Verify() const {
  return KeyPair::Verify(node_key, SignedDigest(), signature);
}

}  // namespace past
