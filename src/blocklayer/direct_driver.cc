#include "blocklayer/direct_driver.h"

#include <utility>

namespace postblock::blocklayer {

DirectDriver::DirectDriver(sim::Simulator* sim, BlockDevice* lower,
                           const CpuCosts& cpu, std::uint32_t cores,
                           const IoRetryPolicy& retry)
    : sim_(sim),
      lower_(lower),
      cpu_(cpu),
      cpu_res_(sim, "direct-cpu", static_cast<int>(cores)),
      retry_(retry) {}

void DirectDriver::Submit(IoRequest request) {
  counters_.Increment("submitted");
  Attempt* op = attempts_.Acquire();
  op->user_cb = std::move(request.on_complete);
  op->request = std::move(request);
  op->start = sim_->Now();
  op->attempt = 1;
  SubmitAttempt(op);
}

void DirectDriver::SubmitAttempt(Attempt* op) {
  const std::uint64_t epoch = epoch_;
  auto done = [this, op, epoch](const IoResult& result) {
    if (epoch != epoch_) return;
    OnDeviceDone(op, result);
  };
  static_assert(IoCallback::fits<decltype(done)>());
  op->request.on_complete = std::move(done);
  auto submit = [this, op, epoch]() {
    if (epoch != epoch_) return;
    lower_->Submit(std::move(op->request));
  };
  static_assert(sim::InplaceCallback::fits<decltype(submit)>());
  cpu_res_.UseFor(cpu_.submit_ns, std::move(submit));
}

void DirectDriver::OnDeviceDone(Attempt* op, const IoResult& result) {
  // EIO retry: a read that still fails after the device's internal
  // ladder gets a bounded, backed-off resubmission (full attempt,
  // including submit CPU — the user-space driver really re-polls).
  if (op->request.op == IoOp::kRead && result.status.IsDataLoss() &&
      op->attempt < retry_.max_attempts) {
    counters_.Increment("eio_retries");
    // The device took the request by move; resubmit a fresh one with
    // the fields a read retry carries.
    IoRequest r;
    r.op = op->request.op;
    r.lba = op->request.lba;
    r.nblocks = op->request.nblocks;
    r.priority = op->request.priority;
    r.span = op->request.span;
    op->request = std::move(r);
    const std::uint64_t epoch = epoch_;
    sim_->Schedule(retry_.backoff_ns << (op->attempt - 1),
                   [this, op, epoch]() {
                     if (epoch != epoch_) return;
                     ++op->attempt;
                     SubmitAttempt(op);
                   });
    return;
  }
  if (!result.status.ok()) counters_.Increment("io_errors");
  op->result = result;
  const std::uint64_t epoch = epoch_;
  auto polled = [this, op, epoch]() {
    if (epoch != epoch_) return;
    latency_.Record(sim_->Now() - op->start);
    counters_.Increment("completed");
    IoCallback user_cb = std::move(op->user_cb);
    const IoResult result = std::move(op->result);
    op->request = IoRequest{};
    attempts_.Recycle(op);
    if (user_cb) user_cb(result);
  };
  static_assert(sim::InplaceCallback::fits<decltype(polled)>());
  cpu_res_.UseFor(cpu_.polled_ns, std::move(polled));
}

void DirectDriver::Execute(host::Command cmd) {
  if (host::IsBlockExpressible(cmd.kind)) {
    Submit(host::LowerToIoRequest(std::move(cmd)));
    return;
  }
  if (cmd.kind == host::CommandKind::kHint) {
    counters_.Increment("hints");
    if (cmd.on_complete) cmd.on_complete(IoResult{Status::Ok(), {}});
    return;
  }
  if (lower_->Supports(cmd.kind)) {
    counters_.Increment("passthrough_cmds");
    lower_->Execute(std::move(cmd));
    return;
  }
  if (cmd.on_complete) {
    cmd.on_complete(IoResult{
        Status::Unimplemented("command not supported below driver"), {}});
  }
}

bool DirectDriver::Supports(host::CommandKind kind) const {
  if (host::IsBlockExpressible(kind) || kind == host::CommandKind::kHint) {
    return true;
  }
  return lower_->Supports(kind);
}

void DirectDriver::RegisterMetrics(metrics::MetricRegistry* m) {
  m->AddPolledCounter("direct.submitted",
                      [this] { return counters_.Get("submitted"); });
  m->AddPolledCounter("direct.completed",
                      [this] { return counters_.Get("completed"); });
  m->AddPolledCounter("direct.cpu_busy_ns",
                      [this] { return cpu_res_.busy_ns(); });
  m->AddGauge("direct.inflight", [this] {
    // Submitted-but-not-completed; exact because both counters advance
    // only in sim callbacks.
    return static_cast<double>(counters_.Get("submitted") -
                               counters_.Get("completed"));
  });
}

}  // namespace postblock::blocklayer
