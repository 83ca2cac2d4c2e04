// perfbench — the repository benchmark. One command runs one workload
// against the existing public APIs, checks its outputs, and prints every
// metric by name with its unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// A run is a warm-up repetition followed by repetitions for as long as
// the next one still fits in --seconds (at least three; with --trace 1,
// two of each kind). Each repetition builds the stack from scratch, sets
// it up, and runs a fixed amount of client work, so every deterministic
// metric must repeat exactly across repetitions; wall numbers are
// medians over them, and the end-to-end host times are quoted at a
// reference host speed (see ReferenceLoop).
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 alternates traced repetitions (shims at every seam, spans in
// memory) with untraced ones and reports the per-layer metrics; the
// traced schedule must equal the untraced one, and the difference in
// host throughput is reported as the tracing overhead. The spans of the
// last traced repetition are written as Chrome trace-event JSON to
// --trace-out and re-parsed as a self-check. sharded_gc has no shims: its
// second kind of repetition is the sequential engine (workers = 0), for
// the parallel speedup.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "layers.h"
#include "trace/chrome_trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 64;
/// Spans retained for the Chrome trace (aggregates cover every span).
constexpr std::size_t kKeptSpans = 20'000;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- host speed -----------------------------------------------------
// Other tenants of a shared host slow this process by up to half, in
// phases of seconds, which no run length averages away. So host time is
// counted at a reference host speed: right after each untraced
// repetition the run times a batch of slices of a fixed reference loop
// that uses no code of the repository, and scales that repetition's
// host time by (median slice time / kReferenceSliceNs). A change to the
// program moves the scaled numbers as before; a change in how busy the
// host is slows the loop and the program alike and cancels. The
// unscaled numbers are printed beside them.

/// Nominal wall time of one reference slice: the host speed the scaled
/// numbers are quoted at (about a calm 4-vCPU x86-64 VM).
constexpr double kReferenceSliceNs = 20e6;
/// Reference time after a repetition, as a share of its wall time (at
/// least one slice).
constexpr double kReferenceShare = 0.05;

/// The reference loop: xorshift-addressed increments over an 8 MiB table
/// and a binary heap of about 32k keys, a mix of cache misses and
/// branches like the simulator's event queue and maps. Every slice does
/// the same work.
class ReferenceLoop {
 public:
  /// Times slices until they took `budget_ns` (at least one) and returns
  /// the host's slowdown against the reference speed: median slice time
  /// / kReferenceSliceNs, > 1 on a slower host.
  double Slowdown(double budget_ns) {
    if (table_.empty()) {
      table_.assign(kTableWords, 0);
      heap_.reserve(2 * kHeapMax);
    }
    std::vector<double> slices;
    double spent = 0;
    do {
      slices.push_back(Slice());
      spent += slices.back();
    } while (spent < budget_ns);
    return Median(std::move(slices)) / kReferenceSliceNs;
  }

 private:
  static constexpr std::size_t kTableWords = std::size_t{1} << 20;
  static constexpr std::size_t kHeapMax = std::size_t{1} << 15;
  static constexpr int kIterations = 200'000;

  double Slice() {
    heap_.clear();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const std::int64_t t0 = WallNs();
    for (int i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (kTableWords - 1)] += x;
      if (heap_.size() < kHeapMax || (x & 1) != 0) {
        heap_.push_back(x);
        std::push_heap(heap_.begin(), heap_.end());
      } else {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      }
    }
    return static_cast<double>(WallNs() - t0);
  }

  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Every deterministic observable of a repetition, as text: two
/// repetitions of one seed must produce the same key.
std::string DeterministicKey(const Rep& r) {
  std::ostringstream k;
  k << "ops=" << r.ops << " failed=" << r.failed
    << " first_failure=" << r.first_failure << " sim_ns=" << r.sim_ns
    << " wa=" << Num(r.wa) << " events=" << r.events
    << " digest=" << r.digest << " latency=";
  std::uint64_t h = kFnvBasis;
  for (const SimTime t : r.latency) h = Fnv(h, t);
  k << r.latency.size() << '/' << h;
  for (const auto& [name, v] : r.layer) k << ' ' << name << '=' << Num(v);
  return k.str();
}

/// The first field where two deterministic keys differ.
std::string FirstDifference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string fa;
  std::string fb;
  while (sa >> fa) {
    if (!(sb >> fb)) return fa + " vs (missing)";
    if (fa != fb) return fa + " vs " + fb;
  }
  return sb >> fb ? "(missing) vs " + fb : "none";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Simulated times carry the unit sim_us: they are outputs of the
// deterministic model (identical for identical inputs by design), not
// host measurements.
const MetricDef kEndToEnd[] = {
    {"host_ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"allocs_per_op", "count"},
    {"peak_rss_mb", "MB"},
    {"sim_ops_per_s", "1/s"},
    {"sim_p50_us", "sim_us"},
    {"sim_p99_us", "sim_us"},
    {"sim_p999_us", "sim_us"},
    {"wa", "ratio"},
};

// The per-layer table. A layer a workload does not reach reads 0.
const MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.event_wall_ns_per_op", "ns"},
    {"sim.event_allocs_per_op", "count"},
    {"ftl.gc_moves_per_write", "count"},
    {"ftl.gc_erases_per_op", "count"},
    {"ftl.gc_stall_us_per_op", "sim_us"},
    {"flash.reads_per_op", "count"},
    {"flash.programs_per_op", "count"},
    {"flash.erases_per_op", "count"},
    {"ssd.submit_wall_ns_per_op", "ns"},
    {"ssd.read_p99_us", "sim_us"},
    {"ssd.write_p99_us", "sim_us"},
    {"blk.self_wall_ns_per_op", "ns"},
    {"blk.allocs_per_op", "count"},
    {"blk.cpu_util", "ratio"},
    {"blk.wait_us_p99", "sim_us"},
    {"vbd.self_wall_ns_per_op", "ns"},
    {"vbd.allocs_per_op", "count"},
    {"vbd.wait_us_p99", "sim_us"},
    {"db.self_wall_ns_per_op", "ns"},
    {"db.allocs_per_op", "count"},
    {"db.device_ios_per_op", "count"},
    {"db.bp_hit_rate", "ratio"},
    {"db.ckpt_wall_ms", "ms"},
    {"engine.windows_per_op", "count"},
    {"engine.events_per_window", "count"},
    {"engine.msgs_per_op", "count"},
    {"engine.speedup_vs_seq", "x"},
    {"driver.wall_ns_per_op", "ns"},
    {"driver.fail_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Chrome-trace export of the last traced repetition, re-read with the
/// repository's own parser: every span must come back with its name,
/// id and parent.
bool WriteTrace(const SpanRecorder& rec, const std::string& title,
                const std::string& path, std::vector<std::string>* errors) {
  const std::string json = rec.ChromeJson(title);
  std::vector<postblock::trace::ParsedEvent> events;
  if (!postblock::trace::ParseChromeTrace(json, &events)) {
    errors->push_back("chrome trace does not re-parse");
    return false;
  }
  std::size_t spans = 0;
  for (const auto& e : events) {
    if (e.ph != 'X') continue;
    ++spans;
    if (e.span != spans || e.parent >= e.span || e.dur_us < 0) {
      errors->push_back("chrome trace span " + std::to_string(spans) +
                        " re-parses wrong");
      return false;
    }
  }
  if (spans != rec.spans_kept()) {
    errors->push_back("chrome trace lost spans on re-parse");
    return false;
  }
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::binary);
  out << json;
  if (!out) {
    errors->push_back("cannot write " + path);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : AllWorkloads()) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("meta: {%s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d}\n",
              postblock::bench::MetaJsonFields(nullptr, w->workers,
                                               w->tenants, w->queues)
                  .c_str(),
              postblock::JsonEscaped(w->name).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace);
  std::printf("workload %s: %s\n", w->name, w->why);
  std::fflush(stdout);

  const bool traced_run = args.trace == 1;
  const std::int64_t start = WallNs();
  // The warm-up fills the process-wide callback slabs and page caches.
  // For sharded_gc it runs the sequential engine (workers = 0), the
  // reference every measured worker count must match.
  const Rep warm = w->run(RepSpec{args.seed, nullptr, 0});
  const std::string ref_key = DeterministicKey(warm);
  std::vector<Rep> plain;   // untraced repetitions
  std::vector<Rep> shimmed;  // traced repetitions (sharded_gc: workers=0)
  std::vector<std::string> plain_keys;
  std::vector<std::string> shimmed_keys;
  // Keys are taken as repetitions finish and only the first untraced
  // repetition keeps its per-op latencies, so memory does not grow with
  // the number of repetitions; peak RSS is read after that first one.
  auto keep = [](Rep r, std::vector<Rep>* reps,
                 std::vector<std::string>* keys) {
    keys->push_back(DeterministicKey(r));
    if (!reps->empty()) std::vector<SimTime>().swap(r.latency);
    reps->push_back(std::move(r));
  };
  double peak_rss_mb = 0;
  std::unique_ptr<SpanRecorder> last_rec;
  // A round is one untraced repetition (plus, with --trace 1, one of the
  // second kind). Rounds start only while the last one's duration still
  // fits in --seconds, so a run ends within --seconds once it has its
  // minimum number of rounds.
  double round_s = static_cast<double>(WallNs() - start) / 1e9;
  ReferenceLoop reference;
  std::vector<double> slowdown;  // per untraced repetition
  for (;;) {
    const std::int64_t round_start = WallNs();
    const double elapsed = static_cast<double>(round_start - start) / 1e9;
    const std::size_t done = traced_run ? std::min(plain.size(), shimmed.size())
                                        : plain.size();
    if (done >= kMaxReps || (done >= (traced_run ? 2 : kMinReps) &&
                             elapsed + round_s > args.seconds)) {
      break;
    }
    keep(w->run(RepSpec{args.seed, nullptr, w->workers}), &plain,
         &plain_keys);
    if (plain.size() == 1) peak_rss_mb = PeakRssMb();
    if (!traced_run) {
      slowdown.push_back(reference.Slowdown(
          kReferenceShare * static_cast<double>(WallNs() - round_start)));
    }
    if (!plain.back().errors.empty()) break;
    if (!traced_run) continue;
    if (w->workers > 0) {
      keep(w->run(RepSpec{args.seed, nullptr, 0}), &shimmed, &shimmed_keys);
    } else {
      auto rec = std::make_unique<SpanRecorder>(kKeptSpans);
      keep(w->run(RepSpec{args.seed, rec.get(), 0}), &shimmed,
           &shimmed_keys);
      last_rec = std::move(rec);
    }
    round_s = static_cast<double>(WallNs() - round_start) / 1e9;
  }

  // ---- checks -------------------------------------------------------
  // attempted/failed count the ops of one repetition. Every repetition
  // replays the same ops of the same seed, and the checks below fail the
  // run if any repetition's failures differ from the warm-up's, so the
  // counts are a pure function of the seed rather than of how many
  // repetitions fit in --seconds.
  std::vector<std::string> errors;
  const std::uint64_t attempted_all = [&] {
    std::uint64_t n = 0;
    for (const Rep& r : plain) n += r.ops;
    for (const Rep& r : shimmed) n += r.ops;
    return n;
  }();
  std::uint64_t attempted = plain.front().ops;
  std::uint64_t failed = plain.front().failed;
  const std::string& first_failure = plain.front().first_failure;
  for (const std::vector<Rep>* reps : {&plain, &shimmed}) {
    for (const Rep& r : *reps) {
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    }
  }
  for (const std::string& e : warm.errors) errors.push_back("warm-up: " + e);

  for (std::size_t i = 0; i < plain.size(); ++i) {
    const std::string& key = plain_keys[i];
    if (key != ref_key) {
      errors.push_back(
          "repetition " + std::to_string(i) +
          (w->workers > 0 ? " at workers=" + std::to_string(w->workers) +
                                " diverged from the workers=0 reference: "
                          : " diverged from the warm-up repetition: ") +
          FirstDifference(key, ref_key));
    }
    if (plain[i].allocs != plain[0].allocs) {
      errors.push_back("allocations differ across repetitions: " +
                       std::to_string(plain[i].allocs) + " vs " +
                       std::to_string(plain[0].allocs));
    }
  }
  for (std::size_t i = 0; i < shimmed.size(); ++i) {
    const std::string& key = shimmed_keys[i];
    if (key != ref_key) {
      errors.push_back("traced repetition " + std::to_string(i) +
                       " changed the simulated schedule: " +
                       FirstDifference(key, ref_key));
    }
  }
  if (last_rec != nullptr) {
    WriteTrace(*last_rec, std::string("perfbench ") + w->name,
               args.trace_out, &errors);
  }

  // ---- metrics ------------------------------------------------------
  const Rep& ref = plain.front();
  std::map<std::string, double> values;
  auto median_of = [](const std::vector<Rep>& reps, auto get) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(get(r));
    return Median(std::move(v));
  };
  const double ops_per_s =
      median_of(plain, [](const Rep& r) { return r.host_ops_per_s(); });
  const double raw_setup_s =
      median_of(plain, [](const Rep& r) { return r.setup_s; });
  if (!traced_run) {
    std::vector<double> scaled_ops_per_s;
    std::vector<double> scaled_setup_s;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      scaled_ops_per_s.push_back(plain[i].host_ops_per_s() * slowdown[i]);
      scaled_setup_s.push_back(plain[i].setup_s / slowdown[i]);
    }
    values["host_ops_per_s"] = Median(scaled_ops_per_s);
    values["setup_s"] = Median(scaled_setup_s);
    values["allocs_per_op"] =
        Ratio(static_cast<double>(ref.allocs), static_cast<double>(ref.ops));
    values["peak_rss_mb"] = peak_rss_mb;
    values["sim_ops_per_s"] = Ratio(static_cast<double>(ref.ops),
                                    static_cast<double>(ref.sim_ns) / 1e9);
    std::vector<SimTime> lat = ref.latency;
    values["sim_p50_us"] = static_cast<double>(Percentile(&lat, 50)) / 1e3;
    values["sim_p99_us"] = static_cast<double>(Percentile(&lat, 99)) / 1e3;
    values["sim_p999_us"] = static_cast<double>(Percentile(&lat, 99.9)) / 1e3;
    values["wa"] = ref.wa;
  } else {
    for (const auto& [name, v] : ref.layer) values[name] = v;
    for (const auto& [name, v] :
         shimmed.empty() ? ref.traced : shimmed.front().traced) {
      values[name] = median_of(shimmed, [&name](const Rep& r) {
        const auto it = r.traced.find(name);
        return it == r.traced.end() ? 0.0 : it->second;
      });
    }
    for (const auto& [name, v] : ref.wall) {
      values[name] = median_of(plain, [&name](const Rep& r) {
        return r.wall.at(name);
      });
    }
    values["driver.fail_ratio"] =
        Ratio(static_cast<double>(ref.failed), static_cast<double>(ref.ops));
    const double shim_ops_per_s =
        median_of(shimmed, [](const Rep& r) { return r.host_ops_per_s(); });
    if (w->workers > 0) {
      values["engine.speedup_vs_seq"] = Ratio(ops_per_s, shim_ops_per_s);
    } else {
      values["trace.overhead_pct"] =
          (Ratio(ops_per_s, shim_ops_per_s) - 1) * 100;
    }
  }

  // ---- report -------------------------------------------------------
  std::printf("repetitions: %zu untraced, %zu %s; %llu ops each; "
              "sim latency samples %llu\n",
              plain.size(), shimmed.size(),
              w->workers > 0 ? "at workers=0" : "traced",
              static_cast<unsigned long long>(ref.ops),
              static_cast<unsigned long long>(ref.latency.size()));
  if (!ref.setup_note.empty()) {
    std::printf("setup: %s\n", ref.setup_note.c_str());
  }
  // The spread next to each wall number: every repetition's value.
  auto print_reps = [](const char* what, const auto& items, auto get) {
    std::printf("%s:", what);
    for (const auto& item : items) std::printf(" %.6g", get(item));
    std::printf("\n");
  };
  print_reps("host_ops_per_s by repetition", plain,
             [](const Rep& r) { return r.host_ops_per_s(); });
  print_reps("setup_s by repetition", plain,
             [](const Rep& r) { return r.setup_s; });
  if (!traced_run) {
    print_reps("host slowdown by repetition", slowdown,
               [](double v) { return v; });
    std::printf("unscaled: host_ops_per_s %.6g, setup_s %.6g\n", ops_per_s,
                raw_setup_s);
  }
  if (!shimmed.empty()) {
    print_reps(w->workers > 0 ? "host_ops_per_s at workers=0"
                              : "host_ops_per_s traced",
               shimmed, [](const Rep& r) { return r.host_ops_per_s(); });
  }
  std::printf("fail_ratio: %.6g (%llu of %llu ops per repetition; "
              "%llu ops over all repetitions)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted_all));
  if (!first_failure.empty()) {
    std::printf("first failing op: %s\n", first_failure.c_str());
  }
  if (last_rec != nullptr) {
    std::printf("spans: %llu recorded, %zu written to %s\n",
                static_cast<unsigned long long>(last_rec->spans_total()),
                last_rec->spans_kept(),
                args.trace_out.empty() ? "(nowhere)" : args.trace_out.c_str());
  }
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  if (attempted == 0) {
    // A run that never reached its measured phase is one failed attempt.
    attempted = 1;
    failed = 1;
  }
  std::string json = "{";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("  %-28s %16.6f %s\n", m.name, v, m.unit);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Num(v) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (traced_run) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
