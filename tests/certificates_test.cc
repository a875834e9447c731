// Tests for file certificates, store receipts, and reclaim certificates.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/certificates.h"

namespace past {
namespace {

class CertificatesTest : public ::testing::Test {
 protected:
  CertificatesTest() : rng_(99), owner_(KeyPair::Generate(rng_)) {}

  FileCertificate MakeCert(const std::string& name, uint64_t salt) {
    FileCertificate cert;
    cert.file_id = ComputeFileId(name, owner_.public_key(), salt);
    cert.content_hash = Sha1::Hash("content of " + name);
    cert.replication_factor = 5;
    cert.salt = salt;
    cert.creation_date = 20010305;
    cert.owner = owner_.public_key();
    cert.signature = owner_.Sign(cert.SignedDigest());
    return cert;
  }

  Rng rng_;
  KeyPair owner_;
};

TEST_F(CertificatesTest, FileIdDependsOnNameOwnerAndSalt) {
  Rng rng(1);
  KeyPair other = KeyPair::Generate(rng);
  FileId base = ComputeFileId("report.pdf", owner_.public_key(), 7);
  EXPECT_NE(base, ComputeFileId("report2.pdf", owner_.public_key(), 7));
  EXPECT_NE(base, ComputeFileId("report.pdf", other.public_key(), 7));
  EXPECT_NE(base, ComputeFileId("report.pdf", owner_.public_key(), 8));
  EXPECT_EQ(base, ComputeFileId("report.pdf", owner_.public_key(), 7));
}

TEST_F(CertificatesTest, ValidCertificateVerifies) {
  FileCertificate cert = MakeCert("a.txt", 1);
  EXPECT_TRUE(cert.VerifySignature());
  EXPECT_TRUE(cert.VerifyContent("content of a.txt"));
}

TEST_F(CertificatesTest, TamperedFieldsFailVerification) {
  FileCertificate cert = MakeCert("a.txt", 1);
  FileCertificate bad = cert;
  bad.replication_factor = 50;
  EXPECT_FALSE(bad.VerifySignature());
  bad = cert;
  bad.salt ^= 1;
  EXPECT_FALSE(bad.VerifySignature());
  bad = cert;
  bad.content_hash[0] ^= 1;
  EXPECT_FALSE(bad.VerifySignature());
}

TEST_F(CertificatesTest, WrongContentDetected) {
  FileCertificate cert = MakeCert("a.txt", 1);
  EXPECT_FALSE(cert.VerifyContent("corrupted bytes"));
}

TEST_F(CertificatesTest, StoreReceiptRoundTrip) {
  Rng rng(5);
  KeyPair node_keys = KeyPair::Generate(rng);
  StoreReceipt receipt;
  receipt.file_id = ComputeFileId("a.txt", owner_.public_key(), 1);
  receipt.storing_node = NodeId(1, 2);
  receipt.node_key = node_keys.public_key();
  receipt.signature = node_keys.Sign(receipt.SignedDigest());
  EXPECT_TRUE(receipt.Verify());
  receipt.storing_node = NodeId(3, 4);
  EXPECT_FALSE(receipt.Verify());
}

TEST_F(CertificatesTest, ReclaimCertificateRoundTrip) {
  ReclaimCertificate cert;
  cert.file_id = ComputeFileId("a.txt", owner_.public_key(), 1);
  cert.date = 20010401;
  cert.owner = owner_.public_key();
  cert.signature = owner_.Sign(cert.SignedDigest());
  EXPECT_TRUE(cert.VerifySignature());
  cert.date += 1;
  EXPECT_FALSE(cert.VerifySignature());
}

TEST_F(CertificatesTest, ReclaimReceiptRoundTrip) {
  Rng rng(6);
  KeyPair node_keys = KeyPair::Generate(rng);
  ReclaimReceipt receipt;
  receipt.file_id = ComputeFileId("a.txt", owner_.public_key(), 1);
  receipt.storing_node = NodeId(9, 9);
  receipt.reclaimed_bytes = 4096;
  receipt.node_key = node_keys.public_key();
  receipt.signature = node_keys.Sign(receipt.SignedDigest());
  EXPECT_TRUE(receipt.Verify());
  receipt.reclaimed_bytes = 8192;  // inflating the refund must fail
  EXPECT_FALSE(receipt.Verify());
}

}  // namespace
}  // namespace past
