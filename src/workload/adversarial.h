// Adversarial workload generators: reference streams deliberately shaped to
// stress the placement and caching policies where the calibrated web trace
// (trace_generator.h) is gentle. Each generator is a pure function of its
// config (seed included) — same config, same trace, byte for byte.
//
//  * Flash crowd — a tiny hot set absorbs most references inside a burst
//    window. Stresses cache admission (a single hot file must not evict the
//    whole cache).
//  * Diurnal swing — the active client region rotates sinusoidally, so the
//    request mix a node's cache was tuned to keeps moving away from it.
//  * Zipf drift — the popularity ranking rotates in phases; yesterday's hot
//    set goes cold, defeating caches that never re-evaluate.
//  * Regional failure — a correlated failure takes out one client cluster's
//    region mid-run: its requests stop and the driver fails the nodes
//    mapped to it (the trace records where; the driver injects the event).
#ifndef SRC_WORKLOAD_ADVERSARIAL_H_
#define SRC_WORKLOAD_ADVERSARIAL_H_

#include <cstddef>
#include <cstdint>

#include "src/workload/trace.h"

namespace past {

enum class AdversarialKind : uint8_t {
  kFlashCrowd,
  kDiurnal,
  kZipfDrift,
  kRegionalFailure,
};

// Short stable names for CLI flags and serialized configs:
// "flash" / "diurnal" / "drift" / "regional".
const char* AdversarialKindName(AdversarialKind kind);
// Returns false on an unknown name (kind is left untouched).
bool AdversarialKindFromName(const char* name, AdversarialKind* kind);

struct AdversarialConfig {
  AdversarialKind kind = AdversarialKind::kFlashCrowd;

  uint32_t catalog_size = 20000;
  uint64_t total_references = 200000;

  // File size calibration (same defaults as WebTraceConfig).
  uint64_t median_size = 1312;
  uint64_t mean_size = 10517;
  uint64_t max_size = 138ull * 1000 * 1000;
  double tail_fraction = 0.005;
  double tail_alpha = 1.05;

  // Baseline popularity and client model.
  double zipf_alpha = 0.8;
  uint32_t num_clients = 775;
  uint32_t num_clusters = 8;
  double cluster_affinity = 0.7;

  // Flash crowd: inside [flash_start, flash_end) of the stream, each
  // reference hits one of the `flash_hot_files` top-ranked files with
  // probability flash_intensity.
  uint32_t flash_hot_files = 4;
  double flash_start = 0.3;
  double flash_end = 0.7;
  double flash_intensity = 0.9;

  // Diurnal swing: the active cluster rotates through `diurnal_periods`
  // full cycles over the stream; at each instant the probability that a
  // request originates in the active cluster swings sinusoidally between
  // cluster_affinity (trough) and diurnal_peak_affinity (peak).
  double diurnal_periods = 4.0;
  double diurnal_peak_affinity = 0.95;

  // Zipf drift: the popularity ranking rotates by catalog_size/drift_phases
  // at each phase boundary, so the hot set is replaced wholesale
  // (drift_phases - 1) times over the stream.
  uint32_t drift_phases = 5;

  // Regional failure: at stream position failure_at, the `failed_cluster`'s
  // region dies — its clients issue no further requests, and the driver is
  // expected to fail the PAST nodes it maps to that region.
  uint32_t failed_cluster = 0;
  double failure_at = 0.5;

  uint64_t seed = 7;
};

struct AdversarialTrace {
  Trace trace;
  // Event index at which the driver should inject the correlated regional
  // failure; SIZE_MAX when the workload has no failure event.
  size_t failure_event_index = SIZE_MAX;
  uint32_t failed_cluster = 0;
};

AdversarialTrace GenerateAdversarialTrace(const AdversarialConfig& config);

}  // namespace past

#endif  // SRC_WORKLOAD_ADVERSARIAL_H_
