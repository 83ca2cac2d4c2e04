#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "layers.h"

namespace perfbench {

/// Order-sensitive FNV-1a fold of `v` into `h`.
inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// What one repetition is asked to do.
struct RepSpec {
  std::uint64_t seed = 1;
  /// Non-null: the traced variant, with shims at every seam.
  SpanRecorder* rec = nullptr;
  /// Engine workers (sharded_gc only; 0 = the sequential reference).
  std::uint32_t workers = 0;
};

/// Everything one repetition measured. A repetition builds the stack
/// from scratch, sets it up, and runs a fixed amount of client work.
struct Rep {
  double setup_s = 0;    // construction to the first measured op
  double measure_s = 0;  // the measured phase, host seconds
  std::uint64_t ops = 0;     // client ops attempted in the measured phase
  std::uint64_t failed = 0;  // completed non-OK or failed a check
  std::uint64_t allocs = 0;  // heap allocations in the measured phase
  std::string first_failure;  // first failing op and its kind
  /// Wrong data or a broken invariant: the run is not correct.
  std::vector<std::string> errors;
  /// What set-up did, for the human-readable report.
  std::string setup_note;

  // Deterministic model observables of the measured phase.
  std::vector<SimTime> latency;  // sim latency of every client op, ns
  SimTime sim_ns = 0;            // sim time the measured phase took
  double wa = 0;                 // flash programs / host pages written
  std::uint64_t events = 0;      // simulator events executed
  std::uint64_t digest = kFnvBasis;  // workload-specific schedule witness
  /// Deterministic per-layer values (counts per op, sim latencies).
  std::map<std::string, double> layer;
  /// Traced variant only: wall/allocation attribution per layer.
  std::map<std::string, double> traced;
  /// Host-time per-layer values any variant measures.
  std::map<std::string, double> wall;

  double host_ops_per_s() const {
    return measure_s > 0 ? static_cast<double>(ops) / measure_s : 0;
  }
};

struct Workload {
  const char* name;
  const char* why;
  /// Engine workers of the measured run; 0 for single-simulator
  /// workloads.
  std::uint32_t workers;
  Rep (*run)(const RepSpec& spec);
  /// Topology stamped into the result's meta line.
  std::int64_t tenants;
  std::int64_t queues;
};

const std::vector<Workload>& AllWorkloads();

/// Percentile `p` (0..100) of `v`, nearest-rank; 0 when empty. Reorders
/// `v`.
SimTime Percentile(std::vector<SimTime>* v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
