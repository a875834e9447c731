// Smartcard quota management tests (paper sections 2.2-2.3).
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/smartcard.h"

namespace past {
namespace {

TEST(SmartcardTest, IssuesCertificateAndDebitsQuota) {
  Rng rng(1);
  Smartcard card(rng, 1000);
  auto cert = card.IssueFileCertificate("a", 1, 100, 5, Sha1::Hash("x"), 1);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(cert->VerifySignature());
  EXPECT_EQ(card.quota_remaining(), 1000u - 500u);
}

TEST(SmartcardTest, RejectsWhenQuotaInsufficient) {
  Rng rng(2);
  Smartcard card(rng, 1000);
  EXPECT_FALSE(card.IssueFileCertificate("big", 1, 300, 5, Sha1::Hash("x"), 1).has_value());
  EXPECT_EQ(card.quota_remaining(), 1000u);  // no partial debit
}

TEST(SmartcardTest, RefundRestoresQuota) {
  Rng rng(3);
  Smartcard card(rng, 1000);
  ASSERT_TRUE(card.IssueFileCertificate("a", 1, 100, 5, Sha1::Hash("x"), 1).has_value());
  card.RefundInsert(100, 5);
  EXPECT_EQ(card.quota_remaining(), 1000u);
}

TEST(SmartcardTest, RefundNeverExceedsTotal) {
  Rng rng(4);
  Smartcard card(rng, 1000);
  card.RefundInsert(100, 5);
  EXPECT_EQ(card.quota_remaining(), 1000u);
}

TEST(SmartcardTest, ReclaimCreditRequiresValidReceipt) {
  Rng rng(5);
  Smartcard card(rng, 1000);
  auto cert = card.IssueFileCertificate("a", 1, 100, 5, Sha1::Hash("x"), 1);
  ASSERT_TRUE(cert.has_value());

  // A storage node issues a receipt for the freed bytes.
  Rng node_rng(6);
  Smartcard node_card(node_rng, 0);
  ReclaimReceipt receipt;
  receipt.file_id = cert->file_id;
  receipt.storing_node = NodeId(1, 1);
  receipt.reclaimed_bytes = 500;
  receipt.node_key = node_card.public_key();
  receipt.signature = node_card.Sign(receipt.SignedDigest());

  EXPECT_TRUE(card.CreditReclaim(receipt));
  EXPECT_EQ(card.quota_remaining(), 1000u);

  // A forged receipt must not credit anything.
  ReclaimReceipt forged = receipt;
  forged.reclaimed_bytes = 999999;
  EXPECT_FALSE(card.CreditReclaim(forged));
}

TEST(SmartcardTest, ReclaimCertificateSigned) {
  Rng rng(7);
  Smartcard card(rng, 1000);
  ReclaimCertificate rc = card.IssueReclaimCertificate(FileId(), 42);
  EXPECT_TRUE(rc.VerifySignature());
}

}  // namespace
}  // namespace past
