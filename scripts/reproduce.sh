#!/usr/bin/env bash
# Builds everything out of tree, runs the full test suite (and again
# under Debug + ASan/UBSan), regenerates every paper experiment
# (EXPERIMENTS.md's tables) into bench_output.txt, and runs the
# event-core performance gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-repro}"

cmake -B "$BUILD_DIR" -S . -G Ninja
cmake --build "$BUILD_DIR"

ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee test_output.txt

# The same suite in a Debug build under AddressSanitizer + UBSan: the
# default build compiles asserts out (NDEBUG), so this is where they and
# the sanitizers actually run. halt_on_error makes a UBSan report fail
# its test (ASan reports and failed asserts already do) instead of
# printing a line ctest hides for a passing test.
cmake -B "$BUILD_DIR-asan" -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug -DSIM_ASAN=ON
cmake --build "$BUILD_DIR-asan"
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR-asan" --output-on-failure 2>&1 |
  tee -a test_output.txt

: > bench_output.txt
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] || continue
  "$b" 2>&1 | tee -a bench_output.txt
done

scripts/check_perf.sh "$BUILD_DIR-perf"

echo
echo "done: test_output.txt + bench_output.txt written."
