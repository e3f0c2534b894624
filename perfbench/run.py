#!/usr/bin/env python3
"""End-to-end benchmark of libnoisypull.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload sf_agent_1e5 --seed 1 --seconds 45 \
        --trace 0

builds perfbench/ (and with it the library from src/) into .bench_build/,
runs the workload and prints its metrics, one per line, then the result
object as the last line.  --trace 1 runs the traced variant, which reports
the per-layer metrics and writes its spans under .bench_build/traces/.
--record FILE appends the result with its workload, seed and machine
context to FILE (JSON lines), the input of the compare mode:

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

Exit status: 0 when every correctness gate passed, 1 when one failed or the
run did not finish, 2 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "noisypull_perfbench"
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s once the benchmark is built (the first run in
# a checkout also builds, which may take longer).
RUN_TIMEOUT_S = 170.0
# Workloads the binary runs that BENCHMARK.json does not list, and why.
WITHHELD = {
    "sf_agent_1e6": "at min(4, nproc) lanes its run time is not steady on a "
                    "shared host (perfbench/README.md)",
    "lumped_sf_1e12": "its run time is heavy-tailed until the long BINV walk "
                      "in rng/binomial is fixed (perfbench/README.md)",
}


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/CMakeLists.txt not found: run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "noisypull_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("building the benchmark failed: " + " ".join(cmd))


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]] + list(WITHHELD)
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.workload in WITHHELD:
        print(f"note: {args.workload} is not in BENCHMARK.json: "
              f"{WITHHELD[args.workload]}", file=sys.stderr)
    build()
    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_out = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_out), "--work-dir", str(work_dir),
           "--revision", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S:.0f} s", code=1)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    context = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("context "):
            context = json.loads(line[len("context "):])

    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"reported metrics differ from BENCHMARK.json {section}")

    if args.record:
        entry = {"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "seconds": args.seconds,
                 "context": context, "result": result}
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


def main(argv):
    if argv[:1] == ["compare"]:
        sys.path.insert(0, str(BENCH_DIR))
        import compare
        return compare.main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append the result to this JSONL file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
