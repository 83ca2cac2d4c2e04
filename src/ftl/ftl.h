#ifndef POSTBLOCK_FTL_FTL_H_
#define POSTBLOCK_FTL_FTL_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"
#include "metrics/metrics.h"
#include "sim/inplace_callback.h"
#include "trace/trace.h"

namespace postblock::ftl {

/// Host-facing interface of a Flash Translation Layer (Figure 2): page-
/// granular logical reads, writes and trims over the LBA space, mapped
/// onto timed flash operations issued through ssd::Controller.
///
/// All calls are asynchronous; callbacks fire in simulated time, exactly
/// once. Page payloads are modeled as 64-bit tokens (flash::PageData).
class Ftl {
 public:
  /// Move-only continuations (sim::InplaceFunction): a caller keeps
  /// its per-op state in a pool it owns and captures only pointers, so
  /// the callback stays in the inline buffer.
  using WriteCallback = sim::InplaceFunction<void(Status)>;
  using ReadCallback = sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;

  virtual ~Ftl() = default;

  /// Writes one logical page. Completion = data durable on flash.
  /// `ctx` carries the caller's trace span/origin down to the flash ops
  /// this write turns into (empty = untraced).
  virtual void Write(Lba lba, std::uint64_t token, WriteCallback cb,
                     trace::Ctx ctx = {}) = 0;

  /// Reads one logical page. Unmapped LBAs read as token 0 (the device
  /// returns zeroes, like a real SSD after trim).
  virtual void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) = 0;

  /// Unmaps one logical page (the ATA TRIM retrofit the paper cites as
  /// evidence the memory abstraction has already cracked).
  virtual void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) = 0;

  /// Host-visible logical pages.
  virtual std::uint64_t user_pages() const = 0;

  /// Counters. All FTLs expose at least:
  ///   host_reads, host_writes, trims, gc_runs, gc_page_moves,
  ///   gc_erases, write_stalls.
  virtual const Counters& counters() const = 0;

  /// Write amplification so far: flash pages programmed / host pages
  /// written (>= 1 once the device has seen host writes).
  virtual double WriteAmplification() const = 0;

  /// Controller-DRAM bytes this FTL's translation state occupies right
  /// now — the crossover study's third axis (page map: 8+ B per logical
  /// page; vision-append: per-block bookkeeping only). 0 = the FTL does
  /// not model its map footprint.
  virtual std::uint64_t MappingTableBytes() const { return 0; }

  /// Registers this FTL's time-series streams (cold path; called once
  /// by the owning Device when a registry is attached). The registry
  /// polls through `this`, so it must not outlive the FTL — same
  /// lifetime contract as the tracer. The default registers the common
  /// counters above as polled streams plus a WA gauge; subclasses add
  /// their own (free blocks, CMT occupancy, ...).
  virtual void RegisterMetrics(metrics::MetricRegistry* m) {
    static constexpr const char* kCommon[] = {
        "host_reads", "host_writes",  "trims",       "gc_runs",
        "gc_erases",  "gc_page_moves", "write_stalls"};
    for (const char* name : kCommon) {
      m->AddPolledCounter(std::string("ftl.") + name,
                          [this, name] { return counters().Get(name); });
    }
    m->AddGauge("ftl.write_amplification",
                [this] { return WriteAmplification(); });
  }
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_FTL_H_
