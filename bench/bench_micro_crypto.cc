// Microbenchmarks for the crypto substrate: SHA-1 throughput, fileId
// computation, signing and verification, and the two crypto steps of every
// insert: the owner's file certificate and the storing nodes' receipts.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/crypto/certificates.h"
#include "src/crypto/keys.h"
#include "src/crypto/sha1.h"
#include "src/crypto/smartcard.h"
#include "src/past/past_node.h"

namespace past {
namespace {

void BM_Sha1(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
// 52 B is a store receipt's signed payload (fileId, nodeId, node key).
BENCHMARK(BM_Sha1)->Arg(52)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ComputeFileId(benchmark::State& state) {
  Rng rng(1);
  KeyPair keys = KeyPair::Generate(rng);
  uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeFileId("some/file/name.txt", keys.public_key(), ++salt));
  }
}
BENCHMARK(BM_ComputeFileId);

void BM_KeyGenerate(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::Generate(rng));
  }
}
BENCHMARK(BM_KeyGenerate);

// Hash-then-sign of a short payload.
void BM_Sign(benchmark::State& state) {
  Rng rng(3);
  KeyPair keys = KeyPair::Generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.Sign(Sha1::Hash("a certificate payload of typical length ...")));
  }
}
BENCHMARK(BM_Sign);

void BM_Verify(benchmark::State& state) {
  Rng rng(4);
  KeyPair keys = KeyPair::Generate(rng);
  Signature sig = keys.Sign(Sha1::Hash("payload"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::Verify(keys.public_key(), Sha1::Hash("payload"), sig));
  }
}
BENCHMARK(BM_Verify);

// One storing node's receipt as an insert produces and checks it: the node
// signs it (PastNode::MakeStoreReceipt) and the client verifies it.
void BM_StoreReceiptSignVerify(benchmark::State& state) {
  Rng rng(5);
  PastConfig config;
  PastNode node(NodeId(rng.NextU64(), rng.NextU64()), config, 1ull << 30, rng);
  FileId file_id(Sha1::Hash("receipt/file"));
  for (auto _ : state) {
    StoreReceipt receipt = node.MakeStoreReceipt(file_id);
    benchmark::DoNotOptimize(receipt.Verify());
  }
}
BENCHMARK(BM_StoreReceiptSignVerify);

// The owner's side of one insert attempt: fileId, certificate digest and
// signature (quota is unlimited, so the debit never fails).
void BM_IssueFileCertificate(benchmark::State& state) {
  Rng rng(6);
  Smartcard card(rng, ~0ull);
  const Sha1Digest content_hash = Sha1::Hash("content");
  uint64_t salt = 0;
  for (auto _ : state) {
    ++salt;
    benchmark::DoNotOptimize(
        card.IssueFileCertificate("some/file/name.txt", salt, 0, 5, content_hash, salt));
  }
}
BENCHMARK(BM_IssueFileCertificate);

}  // namespace
}  // namespace past
