// Result types for the PAST client-visible operations.
//
// All three operations report their outcome the same way: a status enum is
// the source of truth, and the legacy boolean views (`found()`,
// `accepted()`) are derived accessors kept for migration.
#ifndef SRC_PAST_RESULTS_H_
#define SRC_PAST_RESULTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/node_id.h"
#include "src/crypto/certificates.h"

namespace past {

enum class InsertStatus {
  kStored,          // k replicas created, receipts returned
  kNoSpace,         // negative ack: neither the k closest nor their leaf sets
                    // could accommodate the file (triggers file diversion)
  kDuplicateFileId, // fileId collision: the later insert is rejected
  kBadCertificate,  // certificate failed verification at the root
  kTimeout,         // a protocol message was lost in transit (SimTransport
                    // fault injection); the client retries with a new salt
};

enum class LookupStatus {
  kFound,
  kNotFound,
  kTimeout,  // request or fetch reply lost in transit; the client may retry
};

enum class ReclaimStatus {
  kReclaimed,       // owner verified, >= 1 replica dropped, receipts returned
  kNotFound,        // certificate fine but no replica was stored under the id
  kBadCertificate,  // reclaim certificate failed signature verification
  kNotOwner,        // a storing node's file certificate names a different owner
};

const char* ToString(InsertStatus status);
const char* ToString(LookupStatus status);
const char* ToString(ReclaimStatus status);

struct InsertResult {
  InsertStatus status = InsertStatus::kNoSpace;

  bool stored() const { return status == InsertStatus::kStored; }

  // Replicas actually created (== k on success).
  uint32_t replicas_stored = 0;
  // How many of those were diverted into the leaf set.
  uint32_t replicas_diverted = 0;
  // Pastry hops taken by the insert message.
  int route_hops = 0;
  // Fabric messages the operation put on the wire and the simulated
  // end-to-end latency they accumulated (0 over the default, zero-latency
  // transport).
  uint64_t messages = 0;
  double latency_ms = 0.0;
  std::vector<StoreReceipt> receipts;
};

struct LookupResult {
  LookupStatus status = LookupStatus::kNotFound;

  // Shorthand for `status == LookupStatus::kFound`.
  bool found() const { return status == LookupStatus::kFound; }

  // True when a cached copy (not one of the k replicas) served the request.
  bool served_from_cache = false;
  // True when the serving replica was a diverted one reached via pointer
  // (costs one extra hop, paper section 3.3).
  bool via_diversion_pointer = false;
  uint64_t file_size = 0;
  // Routing hops until the file was found (including the pointer hop).
  int hops = 0;
  // Total proximity distance traversed.
  double distance = 0.0;
  NodeId served_by;
  // Fabric messages sent for this lookup and the simulated end-to-end
  // latency of the fetch (request leg over the route plus the reply leg
  // carrying the bytes back; 0 over the default, zero-latency transport).
  uint64_t messages = 0;
  double latency_ms = 0.0;
  // The file bytes, when the insert supplied content (null for size-only
  // trace experiments).
  std::shared_ptr<const std::string> content;
};

struct ReclaimResult {
  ReclaimStatus status = ReclaimStatus::kNotFound;

  // Shorthand: the certificates all verified (kReclaimed or kNotFound),
  // whether or not anything was stored.
  bool accepted() const {
    return status == ReclaimStatus::kReclaimed || status == ReclaimStatus::kNotFound;
  }

  uint32_t replicas_reclaimed = 0;
  uint64_t bytes_reclaimed = 0;
  std::vector<ReclaimReceipt> receipts;
};

inline const char* ToString(InsertStatus status) {
  switch (status) {
    case InsertStatus::kStored:
      return "stored";
    case InsertStatus::kNoSpace:
      return "no_space";
    case InsertStatus::kDuplicateFileId:
      return "duplicate_file_id";
    case InsertStatus::kBadCertificate:
      return "bad_certificate";
    case InsertStatus::kTimeout:
      return "timeout";
  }
  return "unknown";
}

inline const char* ToString(LookupStatus status) {
  switch (status) {
    case LookupStatus::kFound:
      return "found";
    case LookupStatus::kNotFound:
      return "not_found";
    case LookupStatus::kTimeout:
      return "timeout";
  }
  return "unknown";
}

inline const char* ToString(ReclaimStatus status) {
  switch (status) {
    case ReclaimStatus::kReclaimed:
      return "reclaimed";
    case ReclaimStatus::kNotFound:
      return "not_found";
    case ReclaimStatus::kBadCertificate:
      return "bad_certificate";
    case ReclaimStatus::kNotOwner:
      return "not_owner";
  }
  return "unknown";
}

}  // namespace past

#endif  // SRC_PAST_RESULTS_H_
