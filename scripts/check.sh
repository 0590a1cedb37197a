#!/usr/bin/env bash
# check.sh — the repo's verification gate.
#
# Seven stages, all on by default, each individually skippable and each
# reporting one PASS/FAIL line (with its wall-clock time) in the summary:
#
#   tier1     configure + build + full ctest in build-check/ (the baseline
#             configuration every PR must keep green), then the `fleet`
#             label re-run — the fleet-parity digest matrix
#             (tests/test_fleet.cpp) that pins every fleet stream
#             bit-identical to its solo run.
#   model     exhaustive model-checking gate in build-check/: `ctest -L
#             model` (the engine self-tests and the bounded litmus run in
#             tests/test_model.cpp), then tools/modelcheck unbounded — every
#             litmus unit over the policy-templatized SpscRing, turnstile,
#             and TraceBuffer protocols must pass over EVERY interleaving,
#             and every seeded memory-order mutant (src/check/mutants.hpp)
#             must be caught. Green means both "the real protocols are
#             correct under the simulated C++11 memory model" and "the
#             checker can actually detect ordering bugs".
#   asan      rebuild and re-run the suite under AddressSanitizer + UBSan
#             (-DHTIMS_SANITIZE=ON) in build-asan/, with -DHTIMS_NATIVE=ON
#             so the batched SIMD paths compile at the host's full ISA.
#   tsan      rebuild and re-run the suite under ThreadSanitizer
#             (-DHTIMS_TSAN=ON) in build-tsan/. This is the race gate: the
#             suite includes tests/test_race.cpp, which stresses the SPSC
#             ring at capacity boundaries (including the capacity-2 mixed
#             single/batch wrap stress mirroring the model-checked litmus
#             units), parallel_for grain edges, exporter-vs-writer telemetry
#             traffic, one-stream engine start/stop under backpressure —
#             inline decode and decode workers — and fleet churn:
#             multi-stream start/stop over the shared MPMC dispatch queue,
#             dispatch backpressure, and pool shutdown with a non-empty
#             queue. The
#             `tsan` ctest label then re-runs that
#             focused set a second time for extra interleavings. TSan aborts
#             the run on any report, so a green stage means zero races
#             observed.
#   lint      scripts/lint.sh: -Werror warning-clean build, clang-tidy when
#             installed, and the repo-specific rules (including the
#             std::atomic concurrency-inventory rule).
#   faults    degraded-mode gate in build-check/: `ctest -L faults` (the
#             fault-injection suite, the mmap-store corruption sweeps, and
#             the store round-trip/recovery tests) plus examples/fault_drill,
#             a hybrid run under a canned ~1%-corruption/overrun FaultPlan
#             asserting zero contract aborts, exact injected-vs-recovered
#             accounting, and seed-reproducible counts across two runs.
#   bench     bench-smoke gate in build-check/: build the bench targets,
#             then run bench_kernels with a tiny min_time, bench_e16_fleet
#             --tiny, and bench_e19_hdsearch --tiny (telemetry off so no
#             JSON reports land in the tree), then `python3 perfbench/run.py
#             --self-test`: it builds the repository benchmark's driver
#             against the public API (in the gitignored .bench_build/),
#             runs every workload tiny, and checks that every
#             BENCHMARK.json metric comes out in its unit and that the
#             output oracles pass clean runs and catch a corrupted copy.
#             Fails on a crash/nonzero exit (the self-test's included)
#             or on a "REGRESSION" marker in the output — bench_kernels
#             prints one when a headline speedup (batch ring transport vs
#             per-record) drops below 1.0, bench_e16_fleet when the
#             4-stream paced aggregate falls below 2x the single-stream
#             rate, and bench_e19_hdsearch when the SIMD Hamming kernel
#             loses its 4x margin over the scalar oracle or NN recall at
#             D=4096 drops below 0.95. Not a perf gate — the numbers are
#             smoke-level — but it keeps every bench compiling and catches
#             protocol-level throughput inversions.
#
# Build trees are persistent (build-check/, build-asan/, build-tsan/,
# build-lint/), so repeat runs share configure caches and only recompile
# what changed.
#
# Usage: scripts/check.sh [--no-sanitize] [--no-tsan] [--no-lint]
#                         [--no-faults] [--no-bench] [--no-model]
#                         [--tier1-only] [--only <stage>]
# --only runs exactly one stage (tier1|model|asan|tsan|lint|faults|bench);
# stages that reuse the tier-1 tree configure it themselves when needed.
set -uo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
run_tier1=1 run_asan=1 run_tsan=1 run_lint=1 run_faults=1 run_bench=1 run_model=1
usage() {
    echo "usage: scripts/check.sh [--no-sanitize] [--no-tsan] [--no-lint]" >&2
    echo "                        [--no-faults] [--no-bench] [--no-model]" >&2
    echo "                        [--tier1-only] [--only <stage>]" >&2
    exit 2
}
while [[ $# -gt 0 ]]; do
    case "$1" in
        --no-sanitize) run_asan=0 ;;
        --no-tsan) run_tsan=0 ;;
        --no-lint) run_lint=0 ;;
        --no-faults) run_faults=0 ;;
        --no-bench) run_bench=0 ;;
        --no-model) run_model=0 ;;
        --tier1-only) run_asan=0 run_tsan=0 run_lint=0 run_faults=0 run_bench=0 run_model=0 ;;
        --only)
            [[ $# -ge 2 ]] || usage
            only_mode=1
            run_tier1=0 run_asan=0 run_tsan=0 run_lint=0 run_faults=0 run_bench=0 run_model=0
            case "$2" in
                tier1) run_tier1=1 ;;
                model) run_model=1 ;;
                asan) run_asan=1 ;;
                tsan) run_tsan=1 ;;
                lint) run_lint=1 ;;
                faults) run_faults=1 ;;
                bench) run_bench=1 ;;
                *) echo "unknown stage '$2'" >&2; usage ;;
            esac
            shift ;;
        *) usage ;;
    esac
    shift
done

only_mode=${only_mode:-0}
# With --only, every other stage is skipped for that reason, not because of
# its own --no-* flag; report accordingly.
skipnote() { if [[ "$only_mode" == 1 ]]; then echo "--only"; else echo "$1"; fi; }

declare -a summary
fail=0
stage_t0=$SECONDS
begin() { stage_t0=$SECONDS; }
stage() { # name status
    local dt=$((SECONDS - stage_t0))
    if [[ "$2" == SKIP* ]]; then
        summary+=("$(printf '%-6s %s' "$1" "$2")")
    else
        summary+=("$(printf '%-6s %-4s %4ss' "$1" "$2" "$dt")")
    fi
    [[ "$2" == FAIL ]] && fail=1
}

build_and_test() { # build-dir cmake-args...
    local dir="$1"
    shift
    cmake -B "$dir" -S . "$@" > /dev/null &&
        cmake --build "$dir" -j "$jobs" &&
        ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Stages below the tier-1 block reuse build-check/; with --only they must
# configure it themselves.
ensure_check_tree() {
    [[ -f build-check/CMakeCache.txt ]] || cmake -B build-check -S . > /dev/null
}

if [[ "$run_tier1" == 1 ]]; then
    echo "== tier-1: build + ctest (+ fleet-parity re-run) =="
    begin
    if build_and_test build-check &&
        ctest --test-dir build-check -L fleet --output-on-failure -j "$jobs"; then
        stage tier1 PASS
    else
        stage tier1 FAIL
    fi
else
    stage tier1 "SKIP (--only)"
fi

if [[ "$run_model" == 1 ]]; then
    echo "== model: exhaustive litmus gate + mutation soundness =="
    begin
    if ensure_check_tree &&
        cmake --build build-check -j "$jobs" --target modelcheck test_model \
            > /dev/null &&
        ctest --test-dir build-check -L model --output-on-failure -j "$jobs" &&
        build-check/tools/modelcheck/modelcheck; then
        stage model PASS
    else
        stage model FAIL
    fi
else
    stage model "SKIP ($(skipnote --no-model))"
fi

if [[ "$run_asan" == 1 ]]; then
    echo "== sanitizers: ASan + UBSan build + ctest =="
    begin
    if build_and_test build-asan -DHTIMS_SANITIZE=ON -DHTIMS_NATIVE=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo; then
        stage asan PASS
    else
        stage asan FAIL
    fi
else
    stage asan "SKIP ($(skipnote --no-sanitize))"
fi

if [[ "$run_tsan" == 1 ]]; then
    echo "== tsan: ThreadSanitizer build + ctest (race gate) =="
    begin
    # halt_on_error makes any race report fail its test immediately instead
    # of letting a poisoned process keep running.
    if TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
        build_and_test build-tsan -DHTIMS_TSAN=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
        TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
        ctest --test-dir build-tsan -L tsan --output-on-failure -j "$jobs"; then
        stage tsan PASS
    else
        stage tsan FAIL
    fi
else
    stage tsan "SKIP ($(skipnote --no-tsan))"
fi

if [[ "$run_lint" == 1 ]]; then
    echo "== lint: scripts/lint.sh =="
    begin
    if scripts/lint.sh; then stage lint PASS; else stage lint FAIL; fi
else
    stage lint "SKIP ($(skipnote --no-lint))"
fi

if [[ "$run_faults" == 1 ]]; then
    echo "== faults: degraded-mode gate (ctest -L faults + fault_drill) =="
    begin
    # Reuses the tier-1 tree; a tier-1 failure already failed the gate, so
    # the rebuild here is a no-op in the common case.
    if ensure_check_tree &&
        cmake --build build-check -j "$jobs" \
            --target test_faults test_store test_corruption fault_drill \
            > /dev/null &&
        ctest --test-dir build-check -L faults --output-on-failure -j "$jobs" &&
        build-check/examples/fault_drill; then
        stage faults PASS
    else
        stage faults FAIL
    fi
else
    stage faults "SKIP ($(skipnote --no-faults))"
fi

if [[ "$run_bench" == 1 ]]; then
    echo "== bench: smoke-build benches, regression markers, perfbench self-test =="
    begin
    # Tiny min_time keeps this to seconds; HTIMS_TELEMETRY=0 suppresses the
    # JSON run reports the benches otherwise write into the working tree.
    bench_log=$(mktemp)
    if ensure_check_tree &&
        cmake --build build-check -j "$jobs" \
            --target bench_kernels bench_e3_throughput bench_e4_scaling \
                     bench_e16_fleet bench_e17_replay bench_e19_hdsearch \
            > /dev/null &&
        HTIMS_TELEMETRY=0 build-check/bench/bench_kernels \
            --benchmark_min_time=0.01 | tee "$bench_log" &&
        HTIMS_TELEMETRY=0 build-check/bench/bench_e16_fleet --tiny \
            | tee -a "$bench_log" &&
        HTIMS_TELEMETRY=0 build-check/bench/bench_e19_hdsearch --tiny \
            | tee -a "$bench_log" &&
        ! grep -q '^REGRESSION' "$bench_log" &&
        python3 perfbench/run.py --self-test; then
        stage bench PASS
    else
        stage bench FAIL
    fi
    rm -f "$bench_log"
else
    stage bench "SKIP ($(skipnote --no-bench))"
fi

echo "== check.sh summary =="
for line in "${summary[@]}"; do echo "  $line"; done
if [[ "$fail" == 0 ]]; then
    echo "== check.sh: all green =="
fi
exit "$fail"
