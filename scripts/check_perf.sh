#!/usr/bin/env bash
# Performance regression gates.
#
# Builds Release, runs bench_sim_core (emits BENCH_sim_core.json) and
# bench_trace_overhead (emits BENCH_trace_overhead.json), then checks:
#   1. hard floors from the event-core rework: pingpong speedup >= 3x
#      over the reference binary-heap core, and 0 heap allocations per
#      event in steady state;
#   2. wheel-vs-reference speedup per workload against the committed
#      baseline (bench/baselines/sim_core_baseline.json) within +-15%.
#      The gate compares the *same-run ratio* (wheel_eps/reference_eps,
#      both measured in one process seconds apart), not absolute
#      events/sec: absolute rates drift ~20% with container load and a
#      pristine tree must never fail the gate, while machine-speed
#      drift mostly cancels out of the ratio. The residual ratio noise
#      under transient load is handled best-of-N: a below-tolerance
#      measurement re-runs the bench (up to 3 attempts total) and only
#      fails if every attempt is below — a real wheel regression fails
#      all of them, a background-load spike doesn't. A missing baseline
#      is created from the current run (first-run bootstrap). The
#      "meta" key (git SHA, device shape) is ignored when comparing;
#   3. the tracing subsystem: a disabled tracer must cost <= 2% wall
#      clock over the fig2 GC workload, and tracing in any mode must not
#      perturb the simulated schedule;
#   4. the metrics subsystem: an attached registry (no sampler) must
#      cost <= 2% wall clock over the same workload, sampling must not
#      perturb the device schedule, and the final sampled cumulative
#      rows must equal the stack's Counters;
#   5. the reliability layer: an attached-but-silent fault injector must
#      not perturb the simulated schedule (it consumes no Rng draws)
#      and must cost <= 1% wall clock over the same workload;
#   6. the multi-queue host path: a default config must be
#      schedule-identical to one with every mq knob spelled out at its
#      neutral value, 1-queue sim-time IOPS must stay within +-2% of
#      the committed baseline (bench/baselines/mq_baseline.json,
#      first-run bootstrap), 4 queues must deliver >= 2x the 1-queue
#      IOPS on the lock-bound workload, and the completion path must
#      not allocate in steady state;
#   7. the sharded parallel cores: every worker count (1/2/4) must
#      produce a combined fingerprint byte-identical to the workers=0
#      sequential reference on the 4-channel fig2-class workload
#      (enforced unconditionally), and 4 workers must deliver >= 1.6x
#      the sequential events/sec — enforced only when the machine has
#      >= 4 hardware threads (the bench stamps hardware_concurrency
#      into its meta so a skipped floor is visible in the artifact);
#   8. the multi-tenant vbd layer: a single pass-through tenant must be
#      schedule-identical to the raw device (neutrality: no tenants,
#      no cost), the 256-tenant create/run/destroy cycle must digest
#      identically when run twice (determinism at scale), and the
#      noisy-neighbor victim's p999 with DRR QoS weights on must stay
#      < 2x its solo-run p999 while the aggressor runs GC-heavy
#      random writes;
#   9. the observability layer: an attached EngineProfiler (default
#      window sampling) must cost <= 2% wall clock over the gate-7
#      sharded workload AND leave the committed schedule byte-identical
#      to the detached run, and the SloWatchdog must emit a
#      deterministic breach stream — the intentional-breach workload
#      must breach (> 0) with an identical digest across two runs;
#  10. the full ssd::Device on the sharded engine: every worker count
#      (1/2/4) must produce a combined fingerprint (model observables +
#      committed schedule) byte-identical to the workers=0 sequential
#      reference on the aged closed-loop workload, with GC relocations
#      crossing the controller/channel seam — enforced unconditionally —
#      and 4 workers must deliver >= 1.5x the sequential events/sec,
#      enforced only when the machine has >= 4 hardware threads;
#  11. the Section 3 crossover (classic block stack vs the post-block
#      vision wiring, same B+-tree/WAL workload on the same geometry):
#      both wirings must digest identically across two runs, the
#      classic side's hidden GC must actually run (WA > 1.0), the
#      vision side's WA must undercut it, vision commits must beat
#      classic commit latency, and both sides must report their
#      mapping DRAM (classic device L2P > 0, vision host map > 0)
#      with the vision device's translation state smaller than the
#      classic L2P, and the vision side must report zero
#      stale_migrations (HostMap) and zero stale_name_reads (device).
#      All sim-time observables — exact, no retry.
#
# Wall-clock gates (1, 2, 3, 4, 5, 9) are measured numbers and therefore
# retried best-of-3 (gate_with_retry): a failed attempt re-runs the
# bench before declaring a regression. Determinism bits and sim-time
# comparisons are exact and never benefit from a retry.
#
# Every gate runs even when an earlier one fails, and so does every
# bench. A bench that exits non-zero fails its gate without a retry,
# and each bench's JSON is removed before it runs, so a gate never
# reads a file left by an earlier run. The script ends with one
# PASS/FAIL/SKIP line per gate and exits 1 if any gate failed. SKIP is
# a first run that bootstrapped a baseline.
#
# Usage: scripts/check_perf.sh [build-dir]     (default: build-perf)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-perf}"
BASELINE="bench/baselines/sim_core_baseline.json"
TOLERANCE=0.15

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_sim_core bench_trace_overhead \
  bench_metrics_overhead bench_reliability bench_mq bench_parallel \
  bench_vbd bench_obs bench_sharded_device bench_crossover \
  -j "$(nproc)" >/dev/null

# Each bench's exit status, by binary name. bench_foo writes
# BENCH_foo.json; the old file goes first, so a bench that dies before
# writing leaves nothing for its gate to read.
declare -A BENCH_RC=()
run_bench() {
  local rc=0
  rm -f "$BUILD_DIR/BENCH_${1#bench_}.json"
  ( cd "$BUILD_DIR" && "./bench/$1" ) || rc=$?
  BENCH_RC[$1]=$rc
  if [ "$rc" -ne 0 ]; then
    echo "check_perf: $1 exited $rc"
  fi
}
bench_exited_ok() {  # $1 = bench binary
  if [ "${BENCH_RC[$1]}" -ne 0 ]; then
    echo "check_perf: FAIL ($1 exited ${BENCH_RC[$1]})"
    return 1
  fi
}
checked() {  # $1 = bench binary, $2 = check function; no retry
  bench_exited_ok "$1" && "$2"
}

for bench in bench_sim_core bench_trace_overhead bench_metrics_overhead \
    bench_reliability bench_mq bench_parallel bench_vbd bench_obs \
    bench_sharded_device bench_crossover; do
  run_bench "$bench"
done
RESULT="$BUILD_DIR/BENCH_sim_core.json"
TRACE_RESULT="$BUILD_DIR/BENCH_trace_overhead.json"
METRICS_RESULT="$BUILD_DIR/BENCH_metrics_overhead.json"
RELIABILITY_RESULT="$BUILD_DIR/BENCH_reliability.json"
MQ_RESULT="$BUILD_DIR/BENCH_mq.json"
MQ_BASELINE="bench/baselines/mq_baseline.json"
PARALLEL_RESULT="$BUILD_DIR/BENCH_parallel.json"
VBD_RESULT="$BUILD_DIR/BENCH_vbd.json"
OBS_RESULT="$BUILD_DIR/BENCH_obs.json"
SHARDED_DEVICE_RESULT="$BUILD_DIR/BENCH_sharded_device.json"
CROSSOVER_RESULT="$BUILD_DIR/BENCH_crossover.json"

# One summary line per gate, printed at the end.
GATE_LINES=()
GATES_FAILED=0
run_gate() {  # $1 = gate number, $2 = title, rest = the check command
  local num="$1" title="$2"
  shift 2
  if "$@"; then
    GATE_LINES+=("gate $num PASS  $title")
  else
    GATE_LINES+=("gate $num FAIL  $title")
    GATES_FAILED=$((GATES_FAILED + 1))
  fi
}
skip_gate() {  # $1 = gate number, $2 = title, $3 = why
  GATE_LINES+=("gate $1 SKIP  $2 ($3)")
}

# Best-of-N for wall-clock gates: speedup ratios and overhead
# percentages are measured numbers, so a transient load spike on a
# small container can push one attempt past budget on a pristine tree.
# Re-measure (fresh bench run) before declaring a regression — a real
# regression fails every attempt, a background-load spike doesn't.
# Determinism bits are not load-dependent; a retry can't launder those
# (they fail all attempts identically). Nor is a bench's non-zero exit:
# that fails the gate at once.
GATE_ATTEMPTS=3
gate_with_retry() {  # $1 = bench binary to re-run, $2 = check function
  local attempt=1
  while ! checked "$1" "$2"; do
    if [ "${BENCH_RC[$1]}" -ne 0 ]; then
      return 1
    fi
    if [ "$attempt" -ge "$GATE_ATTEMPTS" ]; then
      echo "check_perf: FAIL ($1 gate failed on all $GATE_ATTEMPTS" \
           "attempts — a real regression, not load)"
      return 1
    fi
    attempt=$((attempt + 1))
    echo "check_perf: re-measuring $1 (attempt $attempt of" \
         "$GATE_ATTEMPTS; transient container load?)"
    run_bench "$1"
  done
}

check_sim_core_floors() {
  python3 - "$RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# Hard floors from the event-core rework (ISSUE acceptance criteria).
pp = result.get("pingpong", {})
if pp.get("speedup", 0.0) < 3.0:
    failures.append(
        f"pingpong speedup {pp.get('speedup')}x < required 3.0x over the "
        "reference binary-heap core")
if pp.get("wheel_allocs_per_event", 1.0) >= 0.005:
    failures.append(
        f"pingpong wheel allocs/event {pp.get('wheel_allocs_per_event')} "
        "not ~0 (steady state must not allocate)")

if failures:
    print("check_perf: sim_core floors not met this attempt")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("check_perf: OK (sim_core floors met)")
EOF
}
run_gate 1 "event-core floors (pingpong >= 3x, 0 allocs/event)" \
  gate_with_retry bench_sim_core check_sim_core_floors

check_sim_core_baseline() {
  python3 - "$RESULT" "$BASELINE" "$TOLERANCE" <<'EOF'
import json
import sys

result_path, baseline_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
result = json.load(open(result_path))
baseline = json.load(open(baseline_path))
failures = []

# Regression vs recorded baseline, +-15% on the *same-run* speedup
# (wheel_eps / reference_eps, both measured in one process). Absolute
# events/sec drift ~20% with container load on an otherwise pristine
# tree, so comparing them across runs made the gate flaky; the ratio
# cancels machine speed and still catches a wheel-core regression
# (the reference heap core is rebuilt from the same tree, so only a
# relative slowdown of the wheel path can move it). "meta" (git SHA +
# device shape stamp) is provenance, not a measurement.
for name, base in baseline.items():
    if name == "meta":
        continue
    cur = result.get(name)
    if cur is None:
        failures.append(f"workload '{name}' missing from current run")
        continue
    base_sp, cur_sp = base["speedup"], cur["speedup"]
    if cur_sp < base_sp * (1.0 - tol):
        failures.append(
            f"{name}: wheel-vs-reference speedup {cur_sp:.2f}x is more "
            f"than {tol:.0%} below baseline {base_sp:.2f}x "
            f"(wheel {cur['wheel_eps']:.0f} ev/s, reference "
            f"{cur['reference_eps']:.0f} ev/s this run)")
    elif cur_sp > base_sp * (1.0 + tol):
        print(f"check_perf: note: {name} speedup improved past "
              f"+{tol:.0%} ({base_sp:.2f}x -> {cur_sp:.2f}x); consider "
              "refreshing the baseline")

if failures:
    print("check_perf: sim_core below tolerance this attempt")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("check_perf: OK (within tolerance of baseline)")
EOF
}
if [ ! -f "$BASELINE" ] && [ -f "$RESULT" ] &&
    [ "${BENCH_RC[bench_sim_core]}" -eq 0 ]; then
  mkdir -p "$(dirname "$BASELINE")"
  cp "$RESULT" "$BASELINE"
  echo "check_perf: no baseline found; recorded $BASELINE from this run."
  skip_gate 2 "event-core speedup vs baseline" "baseline recorded"
else
  run_gate 2 "event-core speedup vs baseline (+-15%)" \
    gate_with_retry bench_sim_core check_sim_core_baseline
fi

check_trace() {
  python3 - "$TRACE_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

if not result.get("deterministic", False):
    failures.append(
        "tracing perturbed the simulated schedule (runs not identical)")
ovh = result.get("disabled", {}).get("overhead_vs_untraced", 1.0)
if ovh > 0.02:
    failures.append(
        f"disabled-tracer overhead {ovh:.1%} exceeds the 2% budget")

if failures:
    print("check_perf: trace overhead gate failed this attempt")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print(f"check_perf: OK (disabled-tracer overhead {ovh:.1%} <= 2%, "
      "schedule unperturbed)")
EOF
}
run_gate 3 "disabled tracer <= 2%, schedule unperturbed" \
  gate_with_retry bench_trace_overhead check_trace

check_metrics() {
  python3 - "$METRICS_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# "deterministic" covers both the device-schedule comparison and the
# final-row-vs-Counters cross-check (the bench folds both into one bit).
if not result.get("deterministic", False):
    failures.append(
        "metrics perturbed the device schedule or the final sampled "
        "rows diverged from the stack's Counters")
ovh = result.get("attached", {}).get("overhead_vs_none", 1.0)
if ovh > 0.02:
    failures.append(
        f"attached-registry overhead {ovh:.1%} exceeds the 2% budget")

if failures:
    print("check_perf: metrics overhead gate failed this attempt")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print(f"check_perf: OK (attached-registry overhead {ovh:.1%} <= 2%, "
      "device schedule unperturbed, Counters cross-check exact)")
EOF
}
run_gate 4 "attached registry <= 2%, Counters cross-check" \
  gate_with_retry bench_metrics_overhead check_metrics

check_reliability() {
  python3 - "$RELIABILITY_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# The injector is consulted before the stochastic error model and draws
# nothing from the Rng, so a silent injector must leave the simulated
# schedule byte-identical. The bench folds sim_end + all device
# observables into this one bit.
if not result.get("deterministic", False):
    failures.append(
        "attached fault injector perturbed the simulated schedule")
ovh = result.get("attached", {}).get("overhead_vs_none", 1.0)
if ovh > 0.01:
    failures.append(
        f"silent-injector overhead {ovh:.1%} exceeds the 1% budget")

if failures:
    print("check_perf: reliability overhead gate failed this attempt")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print(f"check_perf: OK (silent-injector overhead {ovh:.1%} <= 1%, "
      "schedule unperturbed)")
EOF
}
run_gate 5 "silent injector <= 1%, schedule unperturbed" \
  gate_with_retry bench_reliability check_reliability

check_mq() {
  python3 - "$MQ_RESULT" "$MQ_BASELINE" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
failures = []

# The mq machinery must be invisible when off: a default config and a
# config with every knob spelled out at its neutral value must produce
# bit-identical schedules (completion order, times, sim end).
if not result.get("schedule_identical", False):
    failures.append(
        "default config and explicit-neutral mq config produced "
        "different schedules (1-queue neutrality broken)")

# 1-queue overhead gate: sim-time IOPS are deterministic, so the
# tolerance is tight (2%). A drop means the default submit/complete
# path picked up per-IO cost.
base_iops = baseline.get("one_queue", {}).get("iops", 0.0)
cur_iops = result.get("one_queue", {}).get("iops", 0.0)
if base_iops > 0 and cur_iops < base_iops * 0.98:
    failures.append(
        f"1-queue IOPS {cur_iops:.0f} is more than 2% below baseline "
        f"{base_iops:.0f} (default-path overhead regression)")

# The tentpole claim: splitting the submission lock scales.
speedup = result.get("scaling", {}).get("speedup_4q", 0.0)
if speedup < 2.0:
    failures.append(
        f"4-queue speedup {speedup:.2f}x < required 2.0x over 1 queue "
        "on the lock-bound workload")

allocs = result.get("allocs", {}).get("chunk_allocs_per_io", 1.0)
if allocs >= 0.01:
    failures.append(
        f"completion-path slab allocs/IO {allocs} not ~0 "
        "(steady state must recycle boxed callbacks)")

if failures:
    print("check_perf: FAIL (multi-queue host path)")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print(f"check_perf: OK (mq: schedule identical, 1-queue IOPS "
      f"{cur_iops:.0f} within 2% of baseline, 4-queue speedup "
      f"{speedup:.2f}x >= 2x, allocs/IO ~0)")
EOF
}
if [ ! -f "$MQ_BASELINE" ] && [ -f "$MQ_RESULT" ] &&
    [ "${BENCH_RC[bench_mq]}" -eq 0 ]; then
  mkdir -p "$(dirname "$MQ_BASELINE")"
  cp "$MQ_RESULT" "$MQ_BASELINE"
  echo "check_perf: no mq baseline found; recorded $MQ_BASELINE from this run."
  skip_gate 6 "multi-queue host path" "baseline recorded"
else
  run_gate 6 "multi-queue host path (neutral, 1-queue IOPS, 4q >= 2x)" \
    checked bench_mq check_mq
fi

check_parallel() {
  python3 - "$PARALLEL_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# Determinism is the contract, not a target: every worker count must
# commit the exact schedule the sequential reference commits. Checked
# unconditionally — thread count never excuses divergence.
if not result.get("determinism_ok", False):
    failures.append(
        "sharded engine schedules diverged across worker counts "
        "(fingerprints not byte-identical to the workers=0 reference)")
ref = result.get("workers0", {}).get("fingerprint")
for key in ("workers1", "workers2", "workers4"):
    fp = result.get(key, {}).get("fingerprint")
    if fp is None or fp != ref:
        failures.append(
            f"{key} fingerprint {fp} != sequential reference {ref}")

# The scaling floor only means something when the hardware can actually
# run 4 workers; the meta stamp records what this machine had.
hw = result.get("meta", {}).get("hardware_concurrency", 0)
speedup = result.get("speedup_4w", 0.0)
if hw >= 4:
    if speedup < 1.6:
        failures.append(
            f"4-worker speedup {speedup:.2f}x < required 1.6x over the "
            f"sequential reference (hardware_concurrency={hw})")
    note = f"speedup {speedup:.2f}x >= 1.6x"
else:
    note = (f"speedup floor skipped: hardware_concurrency={hw} < 4 "
            f"(measured {speedup:.2f}x)")

if failures:
    print("check_perf: FAIL (sharded parallel cores)")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("check_perf: OK (sharded cores byte-identical at every worker "
      f"count; {note})")
EOF
}
run_gate 7 "sharded cores: determinism at 1/2/4 workers, 4 workers >= 1.6x" \
  checked bench_parallel check_parallel

check_vbd() {
  python3 - "$VBD_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# Neutrality is the contract the whole repo rests on: routing IO
# through a Backend with one whole-device tenant and no QoS gate must
# reproduce the raw device's schedule bit for bit — the in-binary proxy
# for "all paper benches unchanged with no tenants configured".
if not result.get("neutral", {}).get("schedule_identical", False):
    failures.append(
        "pass-through tenant schedule diverged from the raw device "
        "(vbd neutrality broken)")

# 256 tenants created, run concurrently, and destroyed must digest
# identically across two full runs — lifecycle at scale stays
# deterministic.
if not result.get("scaling", {}).get("digest_identical_256", False):
    failures.append(
        "256-tenant create/run/destroy digests diverged across two "
        "runs (lifecycle determinism broken)")

# The QoS claim: with DRR weights on the admission gate, the victim's
# p999 read latency stays < 2x its solo run while the aggressor issues
# GC-heavy random writes.
noisy = result.get("noisy", {})
ratio = noisy.get("ratio_qos", 99.0)
if ratio >= 2.0:
    failures.append(
        f"noisy-neighbor victim p999 with QoS {ratio:.2f}x solo >= 2x "
        f"bound (p999 solo {noisy.get('p999_solo_us')}us, with QoS "
        f"{noisy.get('p999_qos_us')}us)")

if failures:
    print("check_perf: FAIL (multi-tenant vbd)")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("check_perf: OK (vbd: pass-through schedule identical, "
      "256-tenant digest stable, noisy-neighbor p999 with QoS "
      f"{ratio:.2f}x solo < 2x; unthrottled was "
      f"{noisy.get('ratio_noqos', 0):.2f}x)")
EOF
}
run_gate 8 "vbd: neutral tenant, 256-tenant digest, noisy p999 < 2x" \
  checked bench_vbd check_vbd

check_obs() {
  python3 - "$OBS_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# The observability bargain: an always-on profiler must be free enough
# to leave attached (window sampling makes it so) and must never touch
# the schedule it is measuring.
prof = result.get("profiler", {})
if not prof.get("neutral", False):
    failures.append(
        "attached profiler perturbed the committed schedule "
        "(fingerprint or event count diverged from the detached run)")
ovh = prof.get("overhead", 1.0)
if ovh > 0.02:
    failures.append(
        f"attached-profiler overhead {ovh:.1%} exceeds the 2% budget")

# The watchdog's breach stream is an observable of the deterministic
# sim, so it must be reproducible bit for bit — and the intentional
# 1ns-p99 / 1e12-ops floor specs must actually fire.
wd = result.get("watchdog", {})
if wd.get("breaches", 0) <= 0:
    failures.append(
        "intentional-breach SLO specs produced no breaches "
        "(the watchdog is not evaluating)")
if not wd.get("digest_identical", False) or not wd.get("deterministic", False):
    failures.append(
        "watchdog breach stream diverged across two identical runs")

if failures:
    print("check_perf: observability gate failed this attempt")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print(f"check_perf: OK (obs: attached-profiler overhead {ovh:.1%} <= 2%, "
      "schedule byte-identical, watchdog breach stream deterministic "
      f"({wd.get('breaches')} breaches, digest stable))")
EOF
}
run_gate 9 "attached profiler <= 2%, watchdog deterministic" \
  gate_with_retry bench_obs check_obs

check_sharded_device() {
  python3 - "$SHARDED_DEVICE_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# Gate 10: the full ssd::Device (FTL, GC, write buffer, reliability
# ladder) on the sharded engine. Determinism is the contract, checked
# unconditionally: every worker count must commit the schedule — and
# every model observable folded into the fingerprint (counters,
# latency histograms, write amplification, GC-stall attribution) —
# that the workers=0 sequential reference commits.
if not result.get("determinism_ok", False):
    failures.append(
        "sharded-device schedules diverged across worker counts "
        "(fingerprints not byte-identical to the workers=0 reference)")
ref = result.get("workers0", {}).get("fingerprint")
for key in ("workers1", "workers2", "workers4"):
    fp = result.get(key, {}).get("fingerprint")
    if fp is None or fp != ref:
        failures.append(
            f"{key} fingerprint {fp} != sequential reference {ref}")

# Real GC must have run, or the seam was never stressed by relocation
# traffic and the determinism bit proves less than it claims.
wa = result.get("workers0", {}).get("write_amplification", 0.0)
if wa <= 1.0:
    failures.append(
        f"write amplification {wa:.3f} <= 1.0: the aged workload did "
        "not trigger GC relocations across the seam")

# The scaling floor only means something when the hardware can actually
# run 4 workers; the meta stamp records what this machine had.
hw = result.get("meta", {}).get("hardware_concurrency", 0)
speedup = result.get("speedup_4w", 0.0)
if hw >= 4:
    if speedup < 1.5:
        failures.append(
            f"4-worker speedup {speedup:.2f}x < required 1.5x over the "
            f"sequential reference (hardware_concurrency={hw})")
    note = f"speedup {speedup:.2f}x >= 1.5x"
else:
    note = (f"speedup floor skipped: hardware_concurrency={hw} < 4 "
            f"(measured {speedup:.2f}x)")

if failures:
    print("check_perf: FAIL (sharded device)")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("check_perf: OK (sharded device byte-identical at every worker "
      f"count, GC active (WA {wa:.2f}); {note})")
EOF
}
run_gate 10 "sharded device: determinism at 1/2/4 workers, 4 workers >= 1.5x" \
  checked bench_sharded_device check_sharded_device

check_crossover() {
  python3 - "$CROSSOVER_RESULT" <<'EOF'
import json
import sys

result = json.load(open(sys.argv[1]))
failures = []

# Gate 11: the paper's Section 3 crossover, measured. Everything here
# is a sim-time observable of a deterministic schedule — exact checks,
# never retried.
if not result.get("determinism_ok", False):
    failures.append(
        "crossover digests diverged across two runs of the same wiring "
        "(the post-block stack broke the schedule contract)")

classic = result.get("classic", {})
vision = result.get("vision", {})

# The classic side must actually pay for its hidden GC, or the WA
# comparison proves nothing.
cwa = classic.get("write_amplification", 0.0)
vwa = vision.get("write_amplification", 99.0)
if cwa <= 1.0:
    failures.append(
        f"classic WA {cwa:.3f} <= 1.0: the churn never forced the "
        "page-map FTL to relocate live pages")
if vwa >= cwa:
    failures.append(
        f"vision WA {vwa:.3f} >= classic WA {cwa:.3f}: host-declared "
        "liveness failed to beat hidden GC")

# Name hygiene: the host map must never hear of a move for a name it no
# longer holds, and never read a stale name. Either one is how a freed
# page's migration copy used to become an unfreeable ghost and, later, a
# live page erased under the host.
for key in ("stale_migrations", "stale_name_reads"):
    if key not in vision:
        failures.append(f"vision record lacks {key}")
    elif vision[key] != 0:
        failures.append(
            f"vision {key} = {vision[key]} (want 0): the host map and "
            "the device disagree about which names are live")

# Commit latency: the PCM sync path vs padded log blocks + flush.
cl = classic.get("commit_mean_ns", 0.0)
vl = vision.get("commit_mean_ns", 1e18)
if vl >= cl:
    failures.append(
        f"vision commit mean {vl:.0f}ns >= classic {cl:.0f}ns "
        "(the byte-addressed log lost to padded blocks)")

# Both sides must put a number on their mapping DRAM, and the vision
# device's translation state (per-block counters) must undercut the
# classic device's full L2P.
cdev = classic.get("device_map_bytes", 0)
vdev = vision.get("device_map_bytes", 0)
vhost = vision.get("host_map_bytes", 0)
if cdev <= 0:
    failures.append("classic device_map_bytes not reported")
if vhost <= 0:
    failures.append("vision host_map_bytes not reported")
if vdev >= cdev:
    failures.append(
        f"vision device map {vdev}B >= classic L2P {cdev}B "
        "(the device-side indirection did not die)")

if failures:
    print("check_perf: FAIL (section 3 crossover)")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
cross = result.get("crossover", {})
print("check_perf: OK (crossover: deterministic, WA "
      f"{vwa:.3f} vs {cwa:.3f}, commit speedup "
      f"{cross.get('commit_speedup', 0):.0f}x, device L2P shrink "
      f"{cross.get('device_map_shrink', 0):.1f}x)")
EOF
}
run_gate 11 "section 3 crossover: deterministic, WA, commit latency, L2P" \
  checked bench_crossover check_crossover

echo
echo "check_perf: summary"
for line in "${GATE_LINES[@]}"; do
  echo "  $line"
done
if [ "$GATES_FAILED" -gt 0 ]; then
  echo "check_perf: FAIL ($GATES_FAILED of ${#GATE_LINES[@]} gates failed)"
  exit 1
fi
echo "check_perf: OK (no gate failed)"
