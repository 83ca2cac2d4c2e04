#ifndef POSTBLOCK_BLOCKLAYER_REQUEST_H_
#define POSTBLOCK_BLOCKLAYER_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/inplace_callback.h"
#include "trace/trace.h"

namespace postblock::blocklayer {

/// Operations supported by the (legacy) block device interface. Note
/// that kTrim is already a crack in the "pure memory abstraction" — the
/// paper's Section 3 point 2.
enum class IoOp : std::uint8_t {
  kRead = 0,
  kWrite,
  kTrim,
  kFlush,  // drain volatile write cache
};

const char* IoOpName(IoOp op);

/// Completion payload. For reads, `tokens` carries one payload token per
/// logical block (postblock models page contents as 64-bit stamps; see
/// flash::PageData).
struct IoResult {
  Status status;
  std::vector<std::uint64_t> tokens;
};

/// Move-only completion callable for one IO: a sim::InplaceFunction
/// (captures up to kInlineBytes inline, larger ones boxed in a recycled
/// sim::CallbackSlab chunk) that also carries the multi-queue
/// completion-routing context — which software queue the IO belongs to
/// (`queue_id`) and its inflight tag (`tag`) — so lower layers (the
/// SSD's completion path) can attribute a completion to its queue
/// without a map lookup. Both default to "none" for IOs submitted
/// outside the mq block layer. The two fields sit in the base's tail
/// padding, so an IoCallback is no larger than a plain InplaceFunction.
class IoCallback : public sim::InplaceFunction<void(const IoResult&)> {
  using Base = sim::InplaceFunction<void(const IoResult&)>;

 public:
  static constexpr std::uint16_t kNoQueue = 0xffff;
  static constexpr std::uint16_t kNoTag = 0xffff;

  using Base::Base;
  IoCallback() = default;

  IoCallback(IoCallback&& other) noexcept
      : Base(std::move(other)), queue_id(other.queue_id), tag(other.tag) {}

  IoCallback& operator=(IoCallback&& other) noexcept {
    Base::operator=(std::move(other));
    queue_id = other.queue_id;
    tag = other.tag;
    return *this;
  }

  IoCallback& operator=(std::nullptr_t) {
    Base::operator=(nullptr);
    queue_id = kNoQueue;
    tag = kNoTag;
    return *this;
  }

  /// Multi-queue completion-routing context, carried with the callback
  /// down the device stack. kNoQueue/kNoTag when the IO was not
  /// submitted through a multi-queue host path.
  std::uint16_t queue_id = kNoQueue;
  std::uint16_t tag = kNoTag;
};
static_assert(sizeof(IoCallback) ==
              sizeof(sim::InplaceFunction<void(const IoResult&)>));

/// Bounded EIO retry for reads, mirroring the kernel's per-bio retry
/// count: a read completing with DataLoss (uncorrectable media even
/// after the device's own retry ladder) is resubmitted up to
/// `max_attempts` total tries, each preceded by an exponentially grown
/// backoff (`backoff_ns << attempt`). Writes and trims are never
/// retried here — the FTL already places them on fresh blocks, so a
/// failed write is a policy decision for the layer above.
struct IoRetryPolicy {
  std::uint32_t max_attempts = 3;  // total tries; 1 = no retry
  SimTime backoff_ns = 2000;
};

/// One asynchronous block IO. Move-only (the completion callable owns
/// inline state); accidental copies on the submit path are compile
/// errors.
struct IoRequest {
  IoOp op = IoOp::kRead;
  Lba lba = 0;
  std::uint32_t nblocks = 1;
  /// Payload tokens for writes; size must equal nblocks.
  std::vector<std::uint64_t> tokens;
  /// Scheduling priority (higher dispatches first under the priority
  /// scheduler) — the database-IO-priority idea of the paper's ref
  /// [13] (Hall & Bonnet): commit-critical log writes must not queue
  /// behind lazy page flushes.
  std::uint8_t priority = 0;
  /// Submission stream/context id. 0 = unclassified. The multi-queue
  /// block layer can pin a stream to its own software queue
  /// (BlockLayerConfig::stream_queues), and the merge scheduler never
  /// coalesces requests from different streams — interleaved streams
  /// that happen to abut in LBA space are distinct IOs, not one.
  std::uint8_t stream = 0;
  IoCallback on_complete;
  /// Trace identity. 0 = untraced; the topmost layer that sees 0 with an
  /// enabled tracer mints the root span, lower layers inherit it, so a
  /// stacked IO is one span across the whole path.
  trace::SpanId span = 0;
  /// When the request entered a software queue (set by the layer that
  /// enqueues it; measures scheduler queueing delay).
  SimTime enqueued_at = 0;
};

/// Maps a block-layer op onto its trace origin class.
inline trace::Origin OriginOf(IoOp op) {
  switch (op) {
    case IoOp::kRead:
      return trace::Origin::kHostRead;
    case IoOp::kWrite:
      return trace::Origin::kHostWrite;
    case IoOp::kTrim:
      return trace::Origin::kHostTrim;
    case IoOp::kFlush:
      return trace::Origin::kHostFlush;
  }
  return trace::Origin::kMeta;
}

inline const char* IoOpName(IoOp op) {
  switch (op) {
    case IoOp::kRead:
      return "read";
    case IoOp::kWrite:
      return "write";
    case IoOp::kTrim:
      return "trim";
    case IoOp::kFlush:
      return "flush";
  }
  return "?";
}

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_REQUEST_H_
