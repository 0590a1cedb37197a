#!/usr/bin/env bash
# lint.sh — the static-analysis half of the verification gate.
#
# Three stages, each reporting one PASS/FAIL/SKIP line:
#
#   werror     configure build-lint/ with -DHTIMS_WERROR=ON and build the
#              world: the library must be -Wall -Wextra -Wshadow
#              -Wconversion -Wsign-conversion clean, promoted to errors.
#              Every directory that compiles into the htims target rides
#              this strict tier — including src/analysis/ (the HD stage)
#              and the SIMD kernels in src/common/.
#   tidy       clang-tidy over the compile database build-lint/ exports,
#              covering all of src/ (src/analysis/ included), bench/, and
#              examples/. SKIPped (not failed) when clang-tidy is not
#              installed — the werror and rules stages still gate the
#              commit.
#   rules      repo-specific greps that no general tool enforces:
#                * no raw `new`/`delete` outside src/common/ — ownership
#                  lives in containers and the aligned-buffer allocator;
#                * no `std::endl` anywhere in src/, bench/, or examples/ —
#                  the pipeline writes through buffered streams, and endl's
#                  flush in a per-frame loop is a silent throughput bug;
#                * no naked `std::thread` outside src/common/thread_pool.*
#                  and src/pipeline/fleet.cpp — thread lifetime is owned by
#                  ThreadPool; the streaming engine is allowlisted because
#                  its producer/consumer/worker threads are constructed and
#                  joined inside one scope of run(), which *is* the
#                  ownership rule. Tests may spawn threads freely.
#                * every `std::atomic` outside src/common/ (the atomics
#                  policy itself) and src/check/ (the model checker's shadow
#                  atomics) must be accounted for in the "Concurrency
#                  inventory" table of DESIGN.md, or carry an explicit
#                  `atomics-waiver: <reason>` comment on the declaration
#                  line. Lock-free code does not get added to this repo
#                  silently: either it is documented (and thereby a
#                  candidate for a model-checking litmus unit), or it says
#                  in-line why it is exempt. The check also runs the
#                  other way: every file the table lists must exist and
#                  still hold an atomic (the word `atomic` in its code,
#                  `#include <atomic>` aside), so a protocol that was
#                  deleted cannot leave a stale row behind.
#
# Usage: scripts/lint.sh [--no-tidy] [--no-werror] [--no-rules]
set -uo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
run_tidy=1 run_werror=1 run_rules=1
for arg in "$@"; do
    case "$arg" in
        --no-tidy) run_tidy=0 ;;
        --no-werror) run_werror=0 ;;
        --no-rules) run_rules=0 ;;
        *) echo "usage: scripts/lint.sh [--no-tidy] [--no-werror] [--no-rules]" >&2
           exit 2 ;;
    esac
done

declare -a summary
fail=0

stage() { # name status
    summary+=("$(printf '%-8s %s' "$1" "$2")")
    [[ "$2" == FAIL* ]] && fail=1
}

# ----------------------------------------------------------------- werror --
if [[ "$run_werror" == 1 ]]; then
    echo "== lint: warning-clean build (-DHTIMS_WERROR=ON) =="
    if cmake -B build-lint -S . -DHTIMS_WERROR=ON > /dev/null &&
       cmake --build build-lint -j "$jobs"; then
        stage werror PASS
    else
        stage werror FAIL
    fi
else
    stage werror "SKIP (--no-werror)"
fi

# ------------------------------------------------------------------- tidy --
if [[ "$run_tidy" == 1 ]]; then
    if command -v clang-tidy > /dev/null 2>&1; then
        echo "== lint: clang-tidy over compile database =="
        [[ -f build-lint/compile_commands.json ]] ||
            cmake -B build-lint -S . -DHTIMS_WERROR=ON > /dev/null
        if command -v run-clang-tidy > /dev/null 2>&1; then
            tidy_cmd=(run-clang-tidy -p build-lint -quiet
                      "(src|bench|examples)/.*\.cpp$")
        else
            mapfile -t tidy_files \
                < <(find src bench examples -name '*.cpp' | sort)
            tidy_cmd=(clang-tidy -p build-lint --quiet "${tidy_files[@]}")
        fi
        if "${tidy_cmd[@]}"; then
            stage tidy PASS
        else
            stage tidy FAIL
        fi
    else
        # The container images this repo builds in carry gcc only; the tidy
        # stage gates on tool presence instead of failing the whole lint.
        echo "== lint: clang-tidy not installed — skipping tidy stage =="
        stage tidy "SKIP (clang-tidy not installed)"
    fi
else
    stage tidy "SKIP (--no-tidy)"
fi

# ------------------------------------------------------------------ rules --
# Strip // comments before matching so prose about "a new frame" or
# "deleted copies" can't trip the patterns.
decomment() { sed 's@//.*$@@' "$1"; }

if [[ "$run_rules" == 1 ]]; then
    echo "== lint: repo rules =="
    rules_bad=0

    # Rule 1: no raw new/delete outside src/common/.
    while IFS= read -r f; do
        if decomment "$f" | grep -nE '(^|[^_[:alnum:]])(new[[:space:]]+[A-Za-z_:(]|delete[[:space:]]*\[|delete[[:space:]]+[A-Za-z_*(])' |
           grep -vE '= *delete' | grep -q .; then
            echo "rule violation (raw new/delete outside common/): $f"
            decomment "$f" | grep -nE '(^|[^_[:alnum:]])(new[[:space:]]+[A-Za-z_:(]|delete[[:space:]]*\[|delete[[:space:]]+[A-Za-z_*(])' | grep -vE '= *delete'
            rules_bad=1
        fi
    done < <(find src -name '*.cpp' -o -name '*.hpp' | grep -v '^src/common/' | sort)

    # Rule 2: no std::endl in src/, bench/, or examples/ (flush-per-line in
    # frame loops; benches and examples are the copy-paste sources for user
    # code, so they are held to the same bar).
    while IFS= read -r f; do
        if decomment "$f" | grep -n 'std::endl' | grep -q .; then
            echo "rule violation (std::endl in library code): $f"
            decomment "$f" | grep -n 'std::endl'
            rules_bad=1
        fi
    done < <(find src bench examples -name '*.cpp' -o -name '*.hpp' | sort)

    # Rule 3: no naked std::thread outside the thread pool and the
    # streaming engine (whose producer, consumer, and pool worker threads
    # are constructed and joined inside one scope of FleetRunner::run()).
    while IFS= read -r f; do
        case "$f" in
            src/common/thread_pool.hpp|src/common/thread_pool.cpp) continue ;;
            src/pipeline/fleet.cpp) continue ;;
            # The model checker owns its pool of cooperative worker threads
            # outright (created by the explorer, joined in wind-down) — the
            # same single-scope ownership rule as fleet.cpp.
            src/check/model.cpp) continue ;;
        esac
        if decomment "$f" | grep -nE 'std::thread[^_[:alnum:]]' | grep -q .; then
            echo "rule violation (naked std::thread outside thread_pool/fleet): $f"
            decomment "$f" | grep -nE 'std::thread[^_[:alnum:]]'
            rules_bad=1
        fi
    done < <(find src -name '*.cpp' -o -name '*.hpp' | sort)

    # Rule 4: std::atomic outside src/common/ (the atomics policy) and
    # src/check/ (the model checker) must appear in DESIGN.md's
    # "Concurrency inventory" table or carry an `atomics-waiver:` comment
    # on the declaration line. File-granular: listing a file in the
    # inventory covers every atomic in it, since the table documents the
    # file's whole protocol.
    inventory=$(awk '/^## Concurrency inventory/{on=1; next} /^## /{on=0} on' \
        DESIGN.md)
    while IFS= read -r f; do
        if grep -qF "\`$f\`" <<< "$inventory"; then continue; fi
        while IFS= read -r lineno; do
            raw=$(sed -n "${lineno}p" "$f")
            if [[ "$raw" == *atomics-waiver:* ]]; then continue; fi
            echo "rule violation (std::atomic not in DESIGN.md concurrency" \
                 "inventory and no atomics-waiver): $f:$lineno"
            echo "    $raw"
            rules_bad=1
        done < <(decomment "$f" | grep -n 'std::atomic' | cut -d: -f1)
    done < <(find src -name '*.cpp' -o -name '*.hpp' |
             grep -vE '^src/(common|check)/' | sort)
    # ...and the reverse: each row's file exists and still holds an atomic.
    while IFS= read -r f; do
        if [[ ! -f "$f" ]]; then
            echo "rule violation (DESIGN.md concurrency inventory lists a" \
                 "missing file): $f"
            rules_bad=1
        elif ! decomment "$f" | grep -v '^[[:space:]]*#[[:space:]]*include[[:space:]]*<atomic>' |
               grep 'atomic' > /dev/null; then  # not -q: pipefail + SIGPIPE
            echo "rule violation (DESIGN.md concurrency inventory lists a" \
                 "file with no atomic left): $f"
            rules_bad=1
        fi
    done < <(sed -n 's/^| `\([^`]*\)` |.*/\1/p' <<< "$inventory")

    if [[ "$rules_bad" == 0 ]]; then
        stage rules PASS
    else
        stage rules FAIL
    fi
else
    stage rules "SKIP (--no-rules)"
fi

# ---------------------------------------------------------------- summary --
echo "== lint.sh summary =="
for line in "${summary[@]}"; do echo "  $line"; done
exit "$fail"
