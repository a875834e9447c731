#include "src/past/client.h"

#include "src/common/logging.h"
#include "src/past/ops/op_engine.h"

namespace past {
namespace {

// Insert attempts per file under file diversion: the original fileId and
// three re-salted retries (paper section 3.4).
constexpr int kMaxInsertAttempts = 4;

}  // namespace

// Drives the file-diversion retry loop (paper section 3.4) as a chain of
// engine inserts: each attempt issues a fresh-salted certificate and submits
// one InsertOp; the completion callback decides between finishing and
// re-salting. Salts are drawn lazily, one per attempt, so the client RNG
// consumes exactly the same sequence as the settle-era blocking loop.
class PastClient::InsertDriver : public ClientOp,
                                 public std::enable_shared_from_this<PastClient::InsertDriver> {
 public:
  InsertDriver(PastClient& client, std::string name, uint64_t size, Sha1Digest content_hash,
               FileContentRef content, InsertCallback callback)
      : client_(client), name_(std::move(name)), size_(size), content_hash_(content_hash),
        content_(std::move(content)), callback_(std::move(callback)) {}

  void Start() {
    client_.network_.metrics().GetCounter("client.files_attempted").Inc();
    max_attempts_ = client_.network_.config().enable_file_diversion ? kMaxInsertAttempts : 1;
    StartAttempt();
  }

  bool done() const override { return done_; }

  void Cancel() override {
    if (done_) {
      return;
    }
    done_ = true;
    if (current_ != nullptr && !current_->done()) {
      current_->Cancel();  // rolls back the half-done attempt, skips OnAttempt
    }
    current_ = nullptr;
  }

 private:
  void StartAttempt() {
    uint64_t salt = client_.rng_.NextU64();
    certificate_ = client_.card_.IssueFileCertificate(name_, salt, size_,
                                                      client_.network_.config().k,
                                                      content_hash_, ++client_.clock_);
    if (!certificate_) {
      result_.quota_exceeded = true;
      Finish();
      return;
    }
    ++result_.attempts;
    auto self = shared_from_this();
    uint64_t epoch = ++attempt_epoch_;
    auto op = client_.network_.engine().StartInsert(
        client_.access_node_, *certificate_, size_, content_,
        [self](const InsertResult& outcome) { self->OnAttempt(outcome); });
    // The attempt may have completed inside StartInsert (always, under
    // InlineTransport) — OnAttempt already ran, and possibly started the
    // next attempt. Storing the op then would recreate the driver ⇄ op
    // shared_ptr cycle (op's callback holds the driver) after OnAttempt
    // broke it: a silent leak of every completed insert. Keep the op only
    // while it is this driver's live, cancellable attempt.
    if (epoch == attempt_epoch_ && !op->done()) {
      current_ = std::move(op);
    }
  }

  void OnAttempt(const InsertResult& outcome) {
    current_ = nullptr;
    result_.last_status = outcome.status;
    if (outcome.status == InsertStatus::kStored) {
      // Verify the store receipts confirm k copies (paper section 2.2).
      uint32_t verified = 0;
      for (const StoreReceipt& receipt : outcome.receipts) {
        if (receipt.Verify()) {
          ++verified;
        }
      }
      result_.stored = verified == outcome.receipts.size() && verified > 0;
      result_.file_id = certificate_->file_id;
      result_.diversions = result_.attempts - 1;
      Finish();
      return;
    }
    // Negative ack: refund the quota debit and re-salt (file diversion).
    client_.card_.RefundInsert(size_, client_.network_.config().k);
    if (result_.attempts < max_attempts_) {
      StartAttempt();
      return;
    }
    result_.diversions = result_.attempts - 1;
    Finish();
  }

  void Finish() {
    obs::MetricsRegistry& metrics = client_.network_.metrics();
    if (result_.stored) {
      metrics.GetCounter("client.files_stored").Inc();
      if (result_.diversions >= 1) {
        metrics.GetCounter("client.files_diverted").Inc();
        metrics.GetHistogram("client.file_diversions_per_file", obs::LinearBuckets(0.0, 1.0, 8))
            .Observe(static_cast<double>(result_.diversions));
      }
    } else {
      metrics.GetCounter("client.files_failed").Inc();
    }
    done_ = true;
    if (callback_) {
      callback_(result_);
    }
  }

  PastClient& client_;
  std::string name_;
  uint64_t size_;
  Sha1Digest content_hash_;
  FileContentRef content_;
  InsertCallback callback_;

  int max_attempts_ = 1;
  uint64_t attempt_epoch_ = 0;  // guards current_ against re-entrant OnAttempt
  std::optional<FileCertificate> certificate_;
  std::shared_ptr<InsertOp> current_;
  ClientInsertResult result_;
  bool done_ = false;
};

PastClient::PastClient(PastNetwork& network, const NodeId& access_node, uint64_t quota_bytes,
                       uint64_t seed)
    : network_(network), access_node_(access_node), rng_(seed), card_(rng_, quota_bytes) {}

OpHandle PastClient::BeginInsert(const std::string& name, uint64_t size,
                                 InsertCallback callback) {
  // Without real content we certify a synthetic content hash derived from
  // the name (the storage experiments track sizes, not bytes).
  auto driver = std::make_shared<InsertDriver>(*this, name, size, Sha1::Hash(name), nullptr,
                                               std::move(callback));
  driver->Start();
  return OpHandle(std::move(driver));
}

OpHandle PastClient::BeginInsertContent(const std::string& name, const std::string& content,
                                        InsertCallback callback) {
  auto body = std::make_shared<const std::string>(content);
  uint64_t size = body->size();
  Sha1Digest content_hash = Sha1::Hash(*body);
  auto driver = std::make_shared<InsertDriver>(*this, name, size, content_hash, std::move(body),
                                               std::move(callback));
  driver->Start();
  return OpHandle(std::move(driver));
}

OpHandle PastClient::BeginLookup(const FileId& file_id, LookupCallback callback) {
  return OpHandle(network_.engine().StartLookup(access_node_, file_id, std::move(callback)));
}

OpHandle PastClient::BeginReclaim(const FileId& file_id, ReclaimCallback callback) {
  ReclaimCertificate certificate = card_.IssueReclaimCertificate(file_id, ++clock_);
  // The receipts are credited whether the reclaim finishes or is cancelled:
  // a cancel cannot restore the replicas already dropped.
  auto credit = [this](const ReclaimResult& result) {
    for (const ReclaimReceipt& receipt : result.receipts) {
      card_.CreditReclaim(receipt);
    }
  };
  return OpHandle(network_.engine().StartReclaim(
      access_node_, certificate,
      [credit, callback = std::move(callback)](const ReclaimResult& result) {
        credit(result);
        if (callback) {
          callback(result);
        }
      },
      credit));
}

bool PastClient::Poll() { return network_.engine().Poll(); }

void PastClient::Wait(const OpHandle& handle) {
  while (!handle.done()) {
    if (!Poll()) {
      PAST_LOG(kError) << "PastClient::Wait: transport idle with op unfinished";
      return;
    }
  }
}

void PastClient::WaitAll() { network_.engine().WaitAll(); }

ClientInsertResult PastClient::Insert(const std::string& name, uint64_t size) {
  ClientInsertResult result;
  OpHandle handle = BeginInsert(name, size, [&result](const ClientInsertResult& r) { result = r; });
  Wait(handle);
  return result;
}

ClientInsertResult PastClient::InsertContent(const std::string& name,
                                             const std::string& content) {
  ClientInsertResult result;
  OpHandle handle =
      BeginInsertContent(name, content, [&result](const ClientInsertResult& r) { result = r; });
  Wait(handle);
  return result;
}

LookupResult PastClient::Lookup(const FileId& file_id) {
  auto op = network_.engine().StartLookup(access_node_, file_id, nullptr);
  Wait(OpHandle(op));
  return op->result();
}

ReclaimResult PastClient::Reclaim(const FileId& file_id) {
  ReclaimResult result;
  OpHandle handle = BeginReclaim(file_id, [&result](const ReclaimResult& r) { result = r; });
  Wait(handle);
  return result;
}

InsertResult PastClient::InsertCertified(const FileCertificate& certificate, uint64_t size,
                                         FileContentRef content) {
  auto op = network_.engine().StartInsert(access_node_, certificate, size, std::move(content),
                                          nullptr);
  Wait(OpHandle(op));
  return op->result();
}

ReclaimResult PastClient::ReclaimCertified(const ReclaimCertificate& certificate) {
  auto op = network_.engine().StartReclaim(access_node_, certificate, nullptr, nullptr);
  Wait(OpHandle(op));
  return op->result();
}

}  // namespace past
