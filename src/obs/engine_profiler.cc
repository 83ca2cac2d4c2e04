#include "obs/engine_profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "trace/trace.h"

namespace postblock::obs {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min(static_cast<std::size_t>(n),
                                       sizeof(buf) - 1));
}

}  // namespace

EngineProfiler::EngineProfiler(EngineProfilerConfig config)
    : config_(config) {}

void EngineProfiler::OnAttach(const sim::ShardedConfig& config) {
  workers_ = config.workers;
  lookahead_ = config.lookahead;
  scratch_.assign(config.shards, ShardScratch{});
  // One stall slot per helper (ids 1..workers-1); index by worker id
  // so slot 0 exists but stays zero.
  const std::uint32_t slots = config.workers > 1 ? config.workers : 1;
  worker_scratch_.assign(slots, WorkerScratch{});
  shard_profiles_.assign(config.shards, ShardProfile{});
  worker_profiles_.assign(slots, WorkerProfile{});
  message_matrix_.assign(
      static_cast<std::size_t>(config.shards) * config.shards, 0);
  slack_hist_.Reset();
  messages_ = 0;
  windows_observed_ = 0;
  total_window_wall_ns_ = 0;
  first_window_wall_ns_ = 0;
  window_ring_.clear();
  ring_head_ = 0;
  windows_dropped_ = 0;
}

void EngineProfiler::Reset() {
  for (auto& p : shard_profiles_) p = ShardProfile{};
  for (auto& p : worker_profiles_) p = WorkerProfile{};
  for (auto& s : worker_scratch_) s.profile = WorkerProfile{};
  std::fill(message_matrix_.begin(), message_matrix_.end(), 0);
  slack_hist_.Reset();
  messages_ = 0;
  windows_observed_ = 0;
  total_window_wall_ns_ = 0;
  first_window_wall_ns_ = 0;
  window_ring_.clear();
  ring_head_ = 0;
  windows_dropped_ = 0;
}

void EngineProfiler::OnWindowBegin(std::uint64_t round, SimTime floor,
                                   SimTime end, std::uint64_t wall_begin_ns,
                                   bool pooled) {
  (void)round;
  window_wall_begin_ns_ = wall_begin_ns;
  window_floor_ = floor;
  window_end_ = end;
  window_pooled_ = pooled;
  if (first_window_wall_ns_ == 0) first_window_wall_ns_ = wall_begin_ns;
}

void EngineProfiler::OnShardWindow(std::uint64_t round, std::uint32_t shard,
                                   std::uint32_t worker, SimTime floor,
                                   SimTime min_pending_before,
                                   std::uint64_t events_delta,
                                   std::uint64_t wall_begin_ns,
                                   std::uint64_t wall_end_ns) {
  (void)round;
  (void)floor;
  // Worker-side: one plain write per field into this shard's padded
  // slot. Visibility to the coordinator's OnWindowEnd fold rides the
  // engine's ack release/acquire barrier.
  ShardScratch& s = scratch_[shard];
  s.wall_begin_ns = wall_begin_ns;
  s.wall_end_ns = wall_end_ns;
  s.events = events_delta;
  s.min_pending = min_pending_before;
  s.worker = worker;
  s.ran = true;
}

void EngineProfiler::OnWindowEnd(std::uint64_t round,
                                 std::uint64_t wall_end_ns) {
  ++windows_observed_;
  total_window_wall_ns_ += wall_end_ns - window_wall_begin_ns_;

  // Claim a ring slot up front: grow until full, then overwrite the
  // oldest in place (reusing its shards storage — a full ring must
  // append in O(shards), this runs once per window).
  WindowRecord* rec = nullptr;
  if (config_.max_window_records > 0) {
    if (window_ring_.size() < config_.max_window_records) {
      window_ring_.emplace_back();
      rec = &window_ring_.back();
    } else {
      rec = &window_ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % window_ring_.size();
      ++windows_dropped_;
    }
    rec->round = round;
    rec->floor = window_floor_;
    rec->end = window_end_;
    rec->wall_begin_ns = window_wall_begin_ns_;
    rec->wall_end_ns = wall_end_ns;
    rec->pooled = window_pooled_;
    rec->shards.resize(scratch_.size());
  }

  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    ShardScratch& s = scratch_[i];
    ShardProfile& p = shard_profiles_[i];
    if (s.ran) {
      // The conservation identity: the three buckets are differences
      // that telescope to exactly (window end - window begin). An
      // inline window has no other thread to wait for after the slice,
      // so all of its non-busy time is idle and none is barrier.
      const std::uint64_t busy = s.wall_end_ns - s.wall_begin_ns;
      p.busy_wall_ns += busy;
      if (window_pooled_) {
        p.idle_wall_ns += s.wall_begin_ns - window_wall_begin_ns_;
        p.barrier_wall_ns += wall_end_ns - s.wall_end_ns;
      } else {
        p.idle_wall_ns += wall_end_ns - window_wall_begin_ns_ - busy;
      }
      p.events += s.events;
      if (s.min_pending == sim::ShardedEngine::kNoEvent) {
        ++p.windows_idle;
      } else {
        slack_hist_.Record(s.min_pending - window_floor_);
        if (s.events > 0) ++p.windows_active;
      }
      if (rec != nullptr) {
        rec->shards[i] = WindowRecord::ShardSpan{
            s.wall_begin_ns, s.wall_end_ns, s.events, s.worker,
            s.min_pending == sim::ShardedEngine::kNoEvent};
      }
    } else if (rec != nullptr) {
      // Shouldn't happen (every shard runs every window), but keep
      // the record well-formed rather than reading stale scratch.
      rec->shards[i] = WindowRecord::ShardSpan{window_wall_begin_ns_,
                                               window_wall_begin_ns_, 0, 0,
                                               true};
    }
    s.ran = false;
  }

  // Fold helper stall scratch (helpers wrote before their acks).
  for (std::size_t w = 0; w < worker_scratch_.size(); ++w) {
    worker_profiles_[w] = worker_scratch_[w].profile;
  }
}

std::vector<WindowRecord> EngineProfiler::windows() const {
  std::vector<WindowRecord> out;
  out.reserve(window_ring_.size());
  ForEachWindow([&out](const WindowRecord& w) { out.push_back(w); });
  return out;
}

void EngineProfiler::OnMessage(std::uint32_t from, std::uint32_t to,
                               SimTime when) {
  (void)when;
  ++messages_;
  const std::size_t n = shard_profiles_.size();
  if (from < n && to < n) ++message_matrix_[from * n + to];
}

void EngineProfiler::OnWorkerStall(std::uint32_t worker,
                                   std::uint64_t stall_wall_ns) {
  if (worker >= worker_scratch_.size()) return;
  WorkerProfile& p = worker_scratch_[worker].profile;
  ++p.stalls;
  p.stall_wall_ns += stall_wall_ns;
}

std::string EngineProfiler::ToChromeJson() const {
  std::string out;
  out.reserve(4096 + window_ring_.size() * (96 + scratch_.size() * 128));
  out += "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";

  const std::uint32_t pid = trace::kPidEngineWall;
  Appendf(&out,
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
          "\"args\":{\"name\":\"engine-wall\"}},\n",
          pid);
  Appendf(&out,
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
          "\"args\":{\"name\":\"windows\"}},\n",
          pid);
  for (std::size_t s = 0; s < shard_profiles_.size(); ++s) {
    Appendf(&out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
            "\"tid\":%zu,\"args\":{\"name\":\"shard %zu\"}},\n",
            pid, s + 1, s);
  }

  // Rebase to the first observed window so timestamps are readable.
  const std::uint64_t t0 = first_window_wall_ns_;
  ForEachWindow([&](const WindowRecord& w) {
    Appendf(&out,
            "{\"name\":\"window\",\"cat\":\"engine\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":0,"
            "\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64
            ",\"arg\":%" PRIu64 "}},\n",
            static_cast<double>(w.wall_begin_ns - t0) / 1e3,
            static_cast<double>(w.wall_end_ns - w.wall_begin_ns) / 1e3,
            pid, w.round, static_cast<std::uint64_t>(w.floor),
            static_cast<std::uint64_t>(w.end));
    for (std::size_t s = 0; s < w.shards.size(); ++s) {
      const WindowRecord::ShardSpan& span = w.shards[s];
      Appendf(&out,
              "{\"name\":\"%s\",\"cat\":\"engine\",\"ph\":\"X\","
              "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%zu,"
              "\"args\":{\"span\":%" PRIu64 ",\"parent\":%u,\"arg\":%" PRIu64
              "}},\n",
              span.idle ? "idle" : "busy",
              static_cast<double>(span.wall_begin_ns - t0) / 1e3,
              static_cast<double>(span.wall_end_ns - span.wall_begin_ns) /
                  1e3,
              pid, s + 1, w.round, span.worker, span.events);
    }
  });

  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]\n}\n";
  return out;
}

std::string EngineProfiler::MergedChromeJson(
    const std::string& sim_trace_json) const {
  // Splice our events (everything inside this trace's traceEvents
  // array) in front of the host document's array contents.
  const std::string mine = ToChromeJson();
  const std::size_t my_open = mine.find('[');
  const std::size_t my_close = mine.rfind(']');
  const std::size_t host_arr = sim_trace_json.find("\"traceEvents\"");
  if (my_open == std::string::npos || my_close == std::string::npos ||
      host_arr == std::string::npos) {
    return mine;
  }
  const std::size_t host_open = sim_trace_json.find('[', host_arr);
  if (host_open == std::string::npos) return mine;
  std::string events = mine.substr(my_open + 1, my_close - my_open - 1);
  // Trim whitespace and ensure a trailing comma before host events.
  while (!events.empty() &&
         (events.back() == '\n' || events.back() == ' ')) {
    events.pop_back();
  }
  if (!events.empty() && events.back() != ',') events += ',';
  std::string out = sim_trace_json;
  out.insert(host_open + 1, "\n" + events);
  return out;
}

std::string EngineProfiler::ReportJson(
    const std::string& meta_fields) const {
  std::string out;
  out.reserve(2048 + shard_profiles_.size() * 256);
  Appendf(&out, "{\n  \"meta\": {%s},\n", meta_fields.c_str());
  Appendf(&out,
          "  \"engine\": {\"shards\": %zu, \"workers\": %u, "
          "\"lookahead_ns\": %" PRIu64 ", \"sample_every\": %u},\n",
          shard_profiles_.size(), workers_,
          static_cast<std::uint64_t>(lookahead_), config_.sample_every);
  Appendf(&out,
          "  \"windows\": %" PRIu64 ",\n  \"messages\": %" PRIu64
          ",\n  \"wall_window_ns\": %" PRIu64 ",\n",
          windows_observed_, messages_, total_window_wall_ns_);

  out += "  \"shards\": [\n";
  for (std::size_t i = 0; i < shard_profiles_.size(); ++i) {
    const ShardProfile& p = shard_profiles_[i];
    Appendf(&out,
            "    {\"shard\": %zu, \"busy_ns\": %" PRIu64
            ", \"idle_ns\": %" PRIu64 ", \"barrier_ns\": %" PRIu64
            ", \"events\": %" PRIu64 ", \"windows_active\": %" PRIu64
            ", \"windows_idle\": %" PRIu64 ", \"utilization\": %.4f}%s\n",
            i, p.busy_wall_ns, p.idle_wall_ns, p.barrier_wall_ns, p.events,
            p.windows_active, p.windows_idle, p.Utilization(),
            i + 1 < shard_profiles_.size() ? "," : "");
  }
  out += "  ],\n";

  Appendf(&out,
          "  \"lookahead_slack_ns\": {\"count\": %" PRIu64
          ", \"p50\": %" PRIu64 ", \"p99\": %" PRIu64 ", \"max\": %" PRIu64
          ", \"mean\": %.1f},\n",
          slack_hist_.count(), slack_hist_.P50(), slack_hist_.P99(),
          slack_hist_.max(), slack_hist_.Mean());

  out += "  \"workers\": [\n";
  for (std::size_t w = 1; w < worker_profiles_.size(); ++w) {
    const WorkerProfile& p = worker_profiles_[w];
    Appendf(&out,
            "    {\"worker\": %zu, \"stalls\": %" PRIu64
            ", \"stall_ns\": %" PRIu64 "}%s\n",
            w, p.stalls, p.stall_wall_ns,
            w + 1 < worker_profiles_.size() ? "," : "");
  }
  out += "  ],\n";

  out += "  \"message_matrix\": [";
  const std::size_t n = shard_profiles_.size();
  for (std::size_t from = 0; from < n; ++from) {
    out += from == 0 ? "\n    [" : ",\n    [";
    for (std::size_t to = 0; to < n; ++to) {
      Appendf(&out, "%s%" PRIu64, to == 0 ? "" : ", ",
              message_matrix_[from * n + to]);
    }
    out += "]";
  }
  Appendf(&out, "\n  ],\n  \"windows_retained\": %zu,\n",
          window_ring_.size());
  Appendf(&out, "  \"windows_dropped\": %" PRIu64 "\n}\n",
          windows_dropped_);
  return out;
}

Status EngineProfiler::WriteReport(const std::string& path,
                                   const std::string& meta_fields) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  const std::string json = ReportJson(meta_fields);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.close();
  if (!f) return Status::DataLoss("short write to " + path);
  return Status::Ok();
}

}  // namespace postblock::obs
