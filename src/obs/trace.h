// Structured operation tracing for insert / lookup / reclaim / maintenance.
//
// When a sink is installed, each completed operation emits one OpTrace record
// into it; with none installed (the default) an op pays one branch. The one
// sink is a JSONL file (offline analysis — one JSON object per line). Records
// carry pre-rendered ids (hex strings) so the obs layer stays free of
// protocol-type dependencies.
//
// Threading: the harness suite runs experiments share-nothing, each with its
// own sink, but JsonlTraceSink's Record()/Flush() are mutex-guarded so a sink
// shared across threads stays well-formed.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

namespace past {
namespace obs {

enum class TraceOpKind { kInsert, kLookup, kReclaim, kMaintenance };

const char* TraceOpKindName(TraceOpKind kind);

struct OpTrace {
  TraceOpKind kind = TraceOpKind::kInsert;
  uint64_t seq = 0;       // assigned by the emitting component, monotone per run
  std::string file_id;    // hex fileId ("" for maintenance sweeps)
  std::string node;       // hex of the serving / root node ("" if none)
  std::string status;     // outcome label ("stored", "no_space", "found", ...)
  uint64_t size = 0;      // file bytes involved
  int hops = 0;           // routing hops taken
  double distance = 0.0;  // proximity distance traversed
  bool from_cache = false;
  bool diverted = false;  // replica diversion (insert) / pointer hop (lookup)
  // Message-fabric view of the op: protocol messages put on the transport
  // and the simulated end-to-end latency they accumulated (0 over the
  // default, zero-latency transport).
  uint64_t messages = 0;
  double latency_ms = 0.0;
};

// One OpTrace rendered as a single-line JSON object (no trailing newline).
std::string OpTraceJson(const OpTrace& event);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const OpTrace& event) = 0;
  virtual void Flush() {}
};

// Appends one JSON object per event to `path` (truncated on open).
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);

  bool ok() const { return static_cast<bool>(out_); }
  void Record(const OpTrace& event) override;
  void Flush() override;

 private:
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace obs
}  // namespace past

#endif  // SRC_OBS_TRACE_H_
