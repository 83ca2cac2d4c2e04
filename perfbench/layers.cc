#include "layers.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/json.h"

namespace {

// Every heap allocation of the process goes through here, as in
// bench_sim_core. Relaxed: only totals are read, between phases.
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDriver:
      return "driver";
    case Layer::kVbd:
      return "vbd";
    case Layer::kBlk:
      return "blk";
    case Layer::kSsd:
      return "ssd";
    case Layer::kDb:
      return "db";
  }
  return "?";
}

void SpanRecorder::Begin(Layer layer, const char* name, std::uint64_t op,
                         SimTime sim_now) {
  if (op == 0) op = current_op();
  std::uint32_t index = kNotKept;
  if (spans_.size() < keep_) {
    index = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = 0;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->index != kNotKept) {
        s.parent = it->index + 1;
        break;
      }
    }
    s.op = op;
    s.sim0 = sim_now;
    spans_.push_back(s);
  }
  ++spans_total_;
  stack_.push_back(Open{index, layer, op, 0, 0});
  // Clock and counter last, so the bookkeeping above is not charged to
  // the span.
  stack_.back().allocs0 = AllocCount();
  stack_.back().wall0 = WallNs();
  if (index != kNotKept) spans_[index].wall0 = stack_.back().wall0;
}

void SpanRecorder::End(SimTime sim_now) {
  const std::int64_t wall1 = WallNs();
  const std::uint64_t allocs1 = AllocCount();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t wall = wall1 - o.wall0;
  const std::uint64_t allocs = allocs1 - o.allocs0;
  const int l = static_cast<int>(o.layer);
  self_wall_[l] += wall - o.child_wall;
  self_allocs_[l] += allocs - o.child_allocs;
  if (stack_.empty()) {
    top_wall_ += wall;
    top_allocs_ += allocs;
  } else {
    stack_.back().child_wall += wall;
    stack_.back().child_allocs += allocs;
  }
  if (o.index != kNotKept) {
    spans_[o.index].wall1 = wall1;
    spans_[o.index].sim1 = sim_now;
  }
}

std::string SpanRecorder::ChromeJson(const std::string& title) const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":1,\"args\":{\"name\":\"%s\"}}",
                postblock::JsonEscaped(title).c_str());
  out += buf;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().wall0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(
        buf, sizeof(buf),
        ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,"
        "\"parent\":%u,\"arg\":%llu,\"sim_begin_ns\":%llu,"
        "\"sim_end_ns\":%llu}}",
        postblock::JsonEscaped(s.name).c_str(), LayerName(s.layer),
        static_cast<double>(s.wall0 - origin) / 1e3,
        static_cast<double>(s.wall1 - s.wall0) / 1e3, i + 1, s.parent,
        static_cast<unsigned long long>(s.op),
        static_cast<unsigned long long>(s.sim0),
        static_cast<unsigned long long>(s.sim1));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

postblock::blocklayer::IoCallback Seam::Wrap(
    postblock::blocklayer::IoCallback cb, std::uint64_t op, Kind kind,
    Lba lba) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Pending& p = pending_[slot];
  const std::uint16_t queue_id = cb.queue_id;
  const std::uint16_t tag = cb.tag;
  p.cb = std::move(cb);
  p.op = op;
  p.t0 = sim_->Now();
  p.kind = kind;
  p.live = true;
  if (op >= by_op_.size()) by_op_.resize(op + 1);
  by_op_[op].submit = p.t0;
  by_op_[op].lba = lba;
  ++submitted_;
  postblock::blocklayer::IoCallback wrapped =
      [this, slot](const postblock::blocklayer::IoResult& result) {
        OnComplete(slot, result);
      };
  wrapped.queue_id = queue_id;
  wrapped.tag = tag;
  return wrapped;
}

void Seam::OnComplete(std::uint32_t slot,
                      const postblock::blocklayer::IoResult& result) {
  Pending& p = pending_[slot];
  if (!p.live) {
    std::fprintf(stderr, "perfbench: %s completed twice (op %llu)\n",
                 complete_name_, static_cast<unsigned long long>(p.op));
    std::abort();
  }
  const SimTime now = sim_->Now();
  const SimTime lat = now - p.t0;
  by_op_[p.op].latency = lat;
  if (p.kind == Kind::kRead) read_lat_.push_back(lat);
  if (p.kind == Kind::kWrite) write_lat_.push_back(lat);
  // Release the slot before the upper layer runs: its completion code
  // may submit again through this seam.
  postblock::blocklayer::IoCallback cb = std::move(p.cb);
  const std::uint64_t op = p.op;
  p.live = false;
  free_.push_back(slot);
  rec_->Begin(upper_, complete_name_, op, now);
  if (cb) cb(result);
  rec_->End(sim_->Now());
}

}  // namespace perfbench
