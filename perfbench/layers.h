// Layer instrumentation for perfbench, all of it outside src/: a
// counting operator new, an in-memory span recorder, and shims that
// decorate the stack's existing seams (vbd Backend -> BlockLayer ->
// ssd::Device) without changing what the model simulates.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blocklayer/block_device.h"
#include "blocklayer/request.h"
#include "common/types.h"
#include "host/command.h"
#include "sim/simulator.h"

namespace perfbench {

using postblock::Lba;
using postblock::SimTime;

/// Heap allocations made by this process so far (every thread), counted
/// by the benchmark binary's own operator new.
std::uint64_t AllocCount();

/// Host monotonic clock in ns.
std::int64_t WallNs();

/// Layers a span can be charged to: the code that runs inside the span.
/// The module names of src/ are the layer names.
enum class Layer : std::uint8_t { kDriver = 0, kVbd, kBlk, kSsd, kDb };
inline constexpr int kLayerCount = 5;
const char* LayerName(Layer layer);

/// Records spans around calls into a layer: name, wall and sim
/// start/end, parent span and op id. Spans nest strictly (the simulator
/// is single-threaded), so self time — a span minus its children — is
/// folded on the fly; the first `keep` spans are also retained for the
/// Chrome trace written at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep) : keep_(keep) {
    // Grown up front, so recording does not charge allocations of its
    // own to the layers.
    spans_.reserve(keep);
    stack_.reserve(64);
  }

  void Begin(Layer layer, const char* name, std::uint64_t op,
             SimTime sim_now);
  void End(SimTime sim_now);
  /// Forgets the retained spans (not the aggregates), so the Chrome
  /// trace shows the measured phase rather than set-up. Call outside
  /// every span.
  void DropKept() { spans_.clear(); }

  /// Mints a fresh op id (ids are dense from 1 within one recorder).
  std::uint64_t NewOp() { return ++ops_minted_; }
  std::uint64_t ops_minted() const { return ops_minted_; }
  /// Op id of the innermost open span, 0 outside every span.
  std::uint64_t current_op() const {
    return stack_.empty() ? 0 : stack_.back().op;
  }

  std::int64_t self_wall_ns(Layer l) const {
    return self_wall_[static_cast<int>(l)];
  }
  std::uint64_t self_allocs(Layer l) const {
    return self_allocs_[static_cast<int>(l)];
  }
  /// Wall and allocations inside top-level spans (every layer the
  /// benchmark wraps); the rest of a run is event core + device
  /// internals.
  std::int64_t top_wall_ns() const { return top_wall_; }
  std::uint64_t top_allocs() const { return top_allocs_; }
  std::uint64_t spans_total() const { return spans_total_; }
  std::size_t spans_kept() const { return spans_.size(); }

  /// Retained spans as Chrome trace-event JSON ("X" events on one
  /// thread, so Perfetto draws the per-layer nesting).
  std::string ChromeJson(const std::string& title) const;

 private:
  struct Open {
    std::uint32_t index;  // into spans_, or kNotKept
    Layer layer;
    std::uint64_t op;
    std::int64_t wall0;
    std::uint64_t allocs0;
    std::int64_t child_wall = 0;
    std::uint64_t child_allocs = 0;
  };
  struct Span {
    const char* name;
    Layer layer;
    std::uint32_t parent;  // 1-based span id, 0 = root
    std::uint64_t op;
    std::int64_t wall0 = 0;
    std::int64_t wall1 = 0;
    SimTime sim0 = 0;
    SimTime sim1 = 0;
  };
  static constexpr std::uint32_t kNotKept = ~0u;

  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t ops_minted_ = 0;
  std::uint64_t spans_total_ = 0;
  std::int64_t self_wall_[kLayerCount] = {};
  std::uint64_t self_allocs_[kLayerCount] = {};
  std::int64_t top_wall_ = 0;
  std::uint64_t top_allocs_ = 0;
};

/// A span for the lifetime of a scope; no-op when `rec` is null (the
/// untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const postblock::sim::Simulator* sim,
             Layer layer, const char* name, std::uint64_t op = 0)
      : rec_(rec), sim_(sim) {
    if (rec_ != nullptr) rec_->Begin(layer, name, op, sim_->Now());
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(sim_->Now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  const postblock::sim::Simulator* sim_;
};

/// One seam between an upper and a lower layer. Submissions run inside
/// a span charged to the lower layer; each request's completion is
/// wrapped so the upper layer's completion code runs inside a span
/// charged to the upper layer. The wrapped completion keeps the
/// callback's queue_id/tag and captures only {Seam*, slot}, so it stays
/// in IoCallback's inline buffer. Also records the sim latency of every
/// request at this seam, by op id.
class Seam {
 public:
  Seam(SpanRecorder* rec, const postblock::sim::Simulator* sim,
       Layer upper, Layer lower, const char* submit_name,
       const char* complete_name)
      : rec_(rec),
        sim_(sim),
        upper_(upper),
        lower_(lower),
        submit_name_(submit_name),
        complete_name_(complete_name) {}

  Seam(const Seam&) = delete;
  Seam& operator=(const Seam&) = delete;

  template <typename Forward>
  void Submit(postblock::blocklayer::IoRequest r, Forward&& forward) {
    // The op id rides in IoRequest::span, which every layer carries
    // down unchanged when no trace::Tracer is attached, so the seams
    // below attribute the request to the same op.
    if (r.span == 0) r.span = rec_->NewOp();
    const std::uint64_t op = r.span;
    r.on_complete = Wrap(std::move(r.on_complete), op,
                         r.op == postblock::blocklayer::IoOp::kWrite
                             ? Kind::kWrite
                             : Kind::kRead,
                         r.lba);
    rec_->Begin(lower_, submit_name_, op, sim_->Now());
    forward(std::move(r));
    rec_->End(sim_->Now());
  }

  template <typename Forward>
  void SubmitBatch(std::vector<postblock::blocklayer::IoRequest> batch,
                   Forward&& forward) {
    std::uint64_t first_op = 0;
    for (postblock::blocklayer::IoRequest& r : batch) {
      if (r.span == 0) r.span = rec_->NewOp();
      if (first_op == 0) first_op = r.span;
      r.on_complete = Wrap(std::move(r.on_complete), r.span,
                           r.op == postblock::blocklayer::IoOp::kWrite
                               ? Kind::kWrite
                               : Kind::kRead,
                           r.lba);
    }
    rec_->Begin(lower_, submit_name_, first_op, sim_->Now());
    forward(std::move(batch));
    rec_->End(sim_->Now());
  }

  /// Typed commands the block vocabulary cannot express (nameless
  /// reads/writes/frees).
  template <typename Forward>
  void Execute(postblock::host::Command cmd, Forward&& forward) {
    using postblock::host::CommandKind;
    if (cmd.span == 0) cmd.span = rec_->NewOp();
    const Kind kind = cmd.kind == CommandKind::kNamelessRead ? Kind::kRead
                      : cmd.kind == CommandKind::kNamelessWrite
                          ? Kind::kWrite
                          : Kind::kOther;
    cmd.on_complete =
        Wrap(std::move(cmd.on_complete), cmd.span, kind, cmd.lba);
    rec_->Begin(lower_, submit_name_, cmd.span, sim_->Now());
    forward(std::move(cmd));
    rec_->End(sim_->Now());
  }

  /// Requests that crossed this seam (submitted, completed).
  std::uint64_t submitted() const { return submitted_; }
  /// Forgets the per-kind latencies so far (set-up traffic).
  void ClearLatency() {
    read_lat_.clear();
    write_lat_.clear();
  }
  /// Per-request sim latency at this seam, by kind (ns).
  const std::vector<SimTime>& read_latency() const { return read_lat_; }
  const std::vector<SimTime>& write_latency() const { return write_lat_; }
  /// Sim latency / submit time / LBA by op id; kMissing where the op did
  /// not cross this seam.
  static constexpr SimTime kMissing = ~SimTime{0};
  SimTime latency_of(std::uint64_t op) const {
    return op < by_op_.size() ? by_op_[op].latency : kMissing;
  }
  SimTime submit_time_of(std::uint64_t op) const {
    return op < by_op_.size() ? by_op_[op].submit : kMissing;
  }
  Lba lba_of(std::uint64_t op) const {
    return op < by_op_.size() ? by_op_[op].lba : 0;
  }
  std::uint64_t max_op() const { return by_op_.size(); }

 private:
  enum class Kind : std::uint8_t { kRead, kWrite, kOther };
  struct Pending {
    postblock::blocklayer::IoCallback cb;
    std::uint64_t op = 0;
    SimTime t0 = 0;
    Kind kind = Kind::kOther;
    bool live = false;
  };
  struct OpRecord {
    SimTime submit = kMissing;
    SimTime latency = kMissing;
    Lba lba = 0;
  };

  postblock::blocklayer::IoCallback Wrap(postblock::blocklayer::IoCallback cb,
                                         std::uint64_t op, Kind kind,
                                         Lba lba);
  void OnComplete(std::uint32_t slot,
                  const postblock::blocklayer::IoResult& result);

  SpanRecorder* rec_;
  const postblock::sim::Simulator* sim_;
  Layer upper_;
  Layer lower_;
  const char* submit_name_;
  const char* complete_name_;
  std::deque<Pending> pending_;
  std::vector<std::uint32_t> free_;
  std::vector<OpRecord> by_op_;
  std::vector<SimTime> read_lat_;
  std::vector<SimTime> write_lat_;
  std::uint64_t submitted_ = 0;
};

/// Decorates a BlockDevice implementation at its seam by deriving from
/// it: Submit/SubmitBatch/Execute go through the Seam, everything else
/// is the base class untouched. Deriving rather than wrapping lets the
/// shim sit where the stack takes a concrete type (StorageManager takes
/// an ssd::Device*). Block-expressible Execute kinds are forwarded as
/// they are: the base lowers them onto Submit, which is shimmed.
template <typename Base>
class Shim final : public Base {
 public:
  template <typename... Args>
  explicit Shim(Seam* seam, Args&&... args)
      : Base(std::forward<Args>(args)...), seam_(seam) {}

  void Submit(postblock::blocklayer::IoRequest r) override {
    seam_->Submit(std::move(r), [this](postblock::blocklayer::IoRequest x) {
      Base::Submit(std::move(x));
    });
  }
  void SubmitBatch(
      std::vector<postblock::blocklayer::IoRequest> batch) override {
    // The inherited default lowers onto Submit, which is shimmed.
    if constexpr (std::is_same_v<
                      decltype(&Base::SubmitBatch),
                      decltype(&postblock::blocklayer::BlockDevice::
                                   SubmitBatch)>) {
      Base::SubmitBatch(std::move(batch));
      return;
    }
    seam_->SubmitBatch(
        std::move(batch),
        [this](std::vector<postblock::blocklayer::IoRequest> b) {
          Base::SubmitBatch(std::move(b));
        });
  }
  void Execute(postblock::host::Command cmd) override {
    if (postblock::host::IsBlockExpressible(cmd.kind)) {
      Base::Execute(std::move(cmd));
      return;
    }
    seam_->Execute(std::move(cmd), [this](postblock::host::Command c) {
      Base::Execute(std::move(c));
    });
  }

 private:
  Seam* seam_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
