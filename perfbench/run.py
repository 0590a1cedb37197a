#!/usr/bin/env python3
"""The htims benchmark: one command for every workload.

    python3 perfbench/run.py --workload live|paced|replay --seed N \
        --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
htims library and the driver (perfbench/src) from source into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The driver generates the workload's inputs from --seed, measures
for --seconds, checks every output against an oracle computed off the
clock, and reports. This script relays the driver's report and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. The full result, with host
and build provenance, is written to <build dir>/results/.

--self-test runs a tiny configuration of each workload, traced and not,
asserts that every metric BENCHMARK.json names is emitted with its unit,
and that a deliberately corrupted copy of an output fails the check.
README.md in this directory says why each workload was chosen.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170
# Every workload the driver runs. BENCHMARK.json lists the ones whose
# figures are steady enough to bound; README.md says why live is not.
WORKLOADS = ("live", "paced", "replay")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(bdir):
    """Configure once, then build incrementally; tool output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no htims sources (CMakeLists.txt, src/) under {ROOT}", 2)
    cmake_dir = bdir / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "htims_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 2)
    return cmake_dir / "htims_perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def source_digest():
    """sha256 over the library sources, so a result names the code it ran."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in [ROOT / "CMakeLists.txt", *files]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/self/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def run_driver(binary, workload, seed, seconds, trace, out_dir, extra=()):
    """Run the driver; relay its report to stdout and return its result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), "--git-sha", git_sha(),
           "--source-digest", source_digest(), "--fs-type", fs_type(out_dir),
           *extra]
    env = dict(os.environ)
    env.pop("HTIMS_TELEMETRY", None)  # keep the registry at its shipped default
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"driver exited {proc.returncode} without a result")
    return result


def select(result, specs, section):
    """The metrics `specs` names, each with the unit BENCHMARK.json gives."""
    metrics = {}
    for spec in specs:
        got = result[section].get(spec["name"])
        if got is None:
            fail(f"driver did not report {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"{spec['name']} reported in {got['unit']}, expected {spec['unit']}")
        if got["value"] is None or not math.isfinite(got["value"]):
            fail(f"{spec['name']} is not a finite number")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def self_test(binary, out_dir):
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, specs, section in ((0, spec["end_to_end"], "end_to_end"),
                                      (1, spec["per_layer"], "per_layer")):
            result = run_driver(binary, workload, 1, 0.5, trace, out_dir, ["--tiny"])
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: checks failed: {result['checks']}")
            for m in specs:
                got = result[section].get(m["name"])
                if got is None or got["unit"] != m["unit"] or got["value"] is None:
                    problems.append(f"{workload} trace {trace}: {m['name']} [{m['unit']}] "
                                    f"missing or wrong unit: {got}")
        corrupt = run_driver(binary, workload, 1, 0.5, 0, out_dir, ["--tiny", "--corrupt"])
        if corrupt["correct"] or corrupt["failed"] < 1:
            problems.append(f"{workload}: a corrupted output copy passed the check")
    for p in problems:
        print("self-test FAILED:", p)
    print("self-test:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out_dir = bdir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return self_test(binary, out_dir)
    if not args.workload:
        parser.error("--workload is required")

    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload} (one of {', '.join(WORKLOADS)})", 2)
    result = run_driver(binary, args.workload, args.seed, args.seconds, args.trace, out_dir)
    report = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1) + "\n")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = select(result, spec[section], section)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
