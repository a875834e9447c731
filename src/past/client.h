// PastClient: the user-side of PAST, and the only public doorway to the
// insert / lookup / reclaim protocols. Owns the user's smartcard (keys +
// storage quota), computes fileIds, and drives the file-diversion retry loop:
// on a negative ack the client generates a new salt, recomputes the fileId,
// and retries the insert in a different part of the nodeId space, up to four
// attempts total (paper section 3.4).
//
// Two surfaces over the same operation engine (src/past/ops/op_engine.h):
//
//  * Submit/completion: BeginInsert / BeginLookup / BeginReclaim return an
//    OpHandle immediately; the completion callback runs when the operation's
//    state machine finishes. Any number of ops may be in flight at once;
//    drive them with Poll() (one transport event) or Wait()/WaitAll().
//
//  * Blocking wrappers: Insert / Lookup / Reclaim start the op their Begin*
//    counterpart starts (InsertCertified / ReclaimCertified: one engine op
//    each) and Wait() for it — one op, drained to completion.
//
// Callback rules: the completion callback is invoked exactly once unless the
// op is cancelled first — a cancelled op's callback is never invoked and its
// partial effects are rolled back (a cancelled reclaim credits the quota for
// the replicas it already dropped). Callbacks run while the transport is
// being pumped — except when a malicious node swallows every attempt's
// route, which fails the insert inside BeginInsert; they may submit new ops
// but must not block. The client must outlive its in-flight ops.
#ifndef SRC_PAST_CLIENT_H_
#define SRC_PAST_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/crypto/smartcard.h"
#include "src/past/ops/async_op.h"
#include "src/past/past_network.h"

namespace past {

struct ClientInsertResult {
  bool stored = false;
  FileId file_id;
  // Number of file diversions (re-salted retries) before success; 0 means
  // the first attempt succeeded. On failure this equals attempts - 1.
  int diversions = 0;
  int attempts = 0;
  InsertStatus last_status = InsertStatus::kNoSpace;
  bool quota_exceeded = false;
};

// Shared handle to a submitted operation. Copyable; the underlying op stays
// alive until it completes, even if every handle is dropped.
class OpHandle {
 public:
  OpHandle() = default;
  explicit OpHandle(std::shared_ptr<ClientOp> op) : op_(std::move(op)) {}

  bool valid() const { return op_ != nullptr; }
  bool done() const { return op_ == nullptr || op_->done(); }
  void Cancel() {
    if (op_ != nullptr) {
      op_->Cancel();
    }
  }

 private:
  std::shared_ptr<ClientOp> op_;
};

class PastClient {
 public:
  using InsertCallback = std::function<void(const ClientInsertResult&)>;
  using LookupCallback = std::function<void(const LookupResult&)>;
  using ReclaimCallback = std::function<void(const ReclaimResult&)>;

  // `access_node` is the PAST node through which this client issues
  // requests. `quota_bytes` caps its replicated storage use.
  PastClient(PastNetwork& network, const NodeId& access_node, uint64_t quota_bytes,
             uint64_t seed);

  const NodeId& access_node() const { return access_node_; }
  void set_access_node(const NodeId& node) { access_node_ = node; }
  Smartcard& card() { return card_; }

  // --- submit/completion surface ---

  // Submits an insert; the driver re-salts and retries on negative acks
  // (file diversion) before completing. Each retry waits for the previous
  // attempt's ack, so one BeginInsert is one outstanding network op at a
  // time — concurrency comes from submitting many.
  OpHandle BeginInsert(const std::string& name, uint64_t size, InsertCallback callback);

  // As BeginInsert, but with caller-provided content (hashed into the
  // certificate; stored with the replicas and returned by lookups).
  OpHandle BeginInsertContent(const std::string& name, const std::string& content,
                              InsertCallback callback);

  OpHandle BeginLookup(const FileId& file_id, LookupCallback callback);

  // Issues the reclaim certificate, submits the reclaim, and credits the
  // returned receipts against the quota before completing.
  OpHandle BeginReclaim(const FileId& file_id, ReclaimCallback callback);

  // --- drain ---

  // Advances the transport by one event; false when idle.
  bool Poll();
  // Pumps until `handle` completes: the one blocking drive loop.
  void Wait(const OpHandle& handle);
  // Pumps until no operation is in flight anywhere on the network.
  void WaitAll();

  // --- blocking wrappers (start the op, then Wait) ---

  ClientInsertResult Insert(const std::string& name, uint64_t size);
  ClientInsertResult InsertContent(const std::string& name, const std::string& content);
  LookupResult Lookup(const FileId& file_id);
  ReclaimResult Reclaim(const FileId& file_id);

  // --- single-attempt escape hatches (tests, experiments) ---

  // Executes exactly one insert attempt with a caller-built certificate: no
  // re-salting, no quota bookkeeping. This is how tests exercise forged or
  // duplicate certificates against the network's verification path.
  InsertResult InsertCertified(const FileCertificate& certificate, uint64_t size,
                               FileContentRef content = nullptr);

  // One reclaim attempt with a caller-built (possibly forged) certificate;
  // receipts are NOT credited to this client's quota.
  ReclaimResult ReclaimCertified(const ReclaimCertificate& certificate);

 private:
  class InsertDriver;

  PastNetwork& network_;
  NodeId access_node_;
  Rng rng_;
  Smartcard card_;
  uint64_t clock_ = 0;  // logical creation-date counter
};

}  // namespace past

#endif  // SRC_PAST_CLIENT_H_
