#!/usr/bin/env python3
"""The qlosured benchmark: one command that builds, runs and checks.

One run of one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload cold-queko --seed 1 --seconds 40 --trace 0

    --trace 0  end-to-end metrics (BENCHMARK.json "end_to_end")
    --trace 1  per-layer metrics  (BENCHMARK.json "per_layer"), from a
               separate traced run; spans go to the results directory

Repeated runs into one result file (median and IQR over runs, per
workload and metric; by default the workloads BENCHMARK.json lists),
for perfbench/compare.py:

    python3 perfbench/run.py --collect base.json --runs 10 [--seed 1]
        [--workloads cold-queko,omega-crossover] [--trace 0] [--seconds 40]

Smoke test of the benchmark itself (all three workloads at tiny size,
both trace modes; checks that every named metric is present and nothing
failed):

    python3 perfbench/run.py --smoke

The program is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Every run
starts a fresh qlosured (--workers 2, --store on a temp file) and stops
it before exiting; all files stay under that build directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cold-queko", "warm-hits", "omega-crossover"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def check_checkout():
    needed = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "tools" / "qlosured.cpp"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        fail("not inside a Qlosure checkout (missing: " + ", ".join(missing) + ")", 2)


def build(out):
    """Configures once, then builds qlosured and qlbench (incremental)."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "qlosured", "qlbench"])
    with open(log, "w") as sink:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    daemon = out / "qlosure" / "qlosured"
    bench = out / "qlbench"
    if not daemon.exists() or not bench.exists():
        fail("build produced no qlosured/qlbench")
    return daemon, bench


def host_info(out):
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": model or platform.processor(),
        "nproc": nproc,
        "kernel": platform.release(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
    }


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()


def bench_spec():
    path = ROOT / "BENCHMARK.json"
    if path.exists():
        return json.loads(path.read_text())
    return {"end_to_end": [], "per_layer": []}


def named_metrics(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(daemon, bench, out, workload, seed, seconds, trace, smoke=False):
    """One qlbench run; returns its record (None on a crash or timeout)."""
    work = out / f"work-{os.getpid()}-{workload}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = out / "results"
    results.mkdir(exist_ok=True)
    spans = results / f"spans-{workload}-seed{seed}.jsonl"
    cmd = [str(bench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--daemon", str(daemon), "--workdir", str(work)]
    if trace:
        cmd += ["--spans", str(spans)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        print(f"perfbench: qlbench exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    """Per workload and metric: median and IQR over runs."""
    table = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            table.setdefault(rec["workload"], {}).setdefault(name, []).append(m)
    summary = {}
    for workload, metrics in table.items():
        summary[workload] = {}
        for name, ms in metrics.items():
            values = [m["value"] for m in ms]
            q1, med, q3 = quartiles(values)
            summary[workload][name] = {
                "unit": ms[0]["unit"], "runs": len(values), "median": med,
                "q1": q1, "q3": q3, "iqr": q3 - q1,
                "spread": (q3 - q1) / abs(med) if med else 0.0,
                "values": values,
            }
    return summary


def describe(rec):
    """Human-readable lines for one run."""
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
             f"commit={rec['commit'][:16]} host={rec['host']['cpu']} "
             f"nproc={rec['host']['nproc']} build={rec['host']['build_type']}"]
    for name, m in rec["metrics"].items():
        extra = ""
        if "iqr" in m:
            extra = f"  (n={m['n']} median={m['median']:.6g} iqr={m['iqr']:.6g})"
        lines.append(f"#   {name:32s} {m['value']:.6g} {m['unit']}{extra}")
    if "coverage_line" in rec.get("notes", {}):
        lines.append("# coverage: " + rec["notes"]["coverage_line"])
    for err in rec.get("errors", []):
        lines.append("# note: " + err)
    return lines


def stamp(rec, host, commit):
    rec["host"] = host
    rec["commit"] = commit
    rec["runs"] = 1
    return rec


def cmd_run(args, spec):
    daemon, bench = build(build_dir())
    out = build_dir()
    rec = run_once(daemon, bench, out, args.workload, args.seed, args.seconds, args.trace)
    if rec is None:
        fail("run failed")
    stamp(rec, host_info(out), commit_id())
    names = named_metrics(spec, args.trace) or list(rec["metrics"])
    missing = [n for n in names if n not in rec["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    with open(out / "results" / "runs.jsonl", "a") as sink:
        sink.write(json.dumps(rec) + "\n")
    for line in describe(rec):
        print(line)
    result = {
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {n: {"value": rec["metrics"][n]["value"], "unit": rec["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0 if rec["correct"] and rec["failed"] == 0 else 1


def cmd_collect(args, spec):
    daemon, bench = build(build_dir())
    out = build_dir()
    host, commit = host_info(out), commit_id()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec.get("workloads", [])] or WORKLOADS)
    records, ok = [], True
    for workload in workloads:
        for k in range(args.runs):
            seed = args.seed + k
            start = time.time()
            rec = run_once(daemon, bench, out, workload, seed, args.seconds, args.trace)
            if rec is None:
                fail(f"{workload} seed {seed} failed")
            stamp(rec, host, commit)
            records.append(rec)
            ok &= bool(rec["correct"])
            print(f"{workload} seed={seed} correct={rec['correct']} failed={rec['failed']} "
                  f"wall={time.time() - start:.1f}s", flush=True)
    summary = summarize(records)
    doc = {"benchmark": "perfbench", "host": host, "commit": commit,
           "seconds": args.seconds, "trace": args.trace, "runs": records,
           "summary": summary}
    Path(args.collect).write_text(json.dumps(doc, indent=1))
    for workload, metrics in summary.items():
        print(f"## {workload}")
        for name, s in metrics.items():
            print(f"   {name:32s} median={s['median']:.6g} {s['unit']} iqr={s['iqr']:.4g} "
                  f"spread={100 * s['spread']:.2f}% runs={s['runs']}")
    return 0 if ok else 1


def cmd_smoke(spec):
    daemon, bench = build(build_dir())
    out = build_dir()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            rec = run_once(daemon, bench, out, workload, 1, 3, trace, smoke=True)
            problems = []
            if rec is None:
                problems.append("run failed")
            else:
                names = named_metrics(spec, trace) or list(rec["metrics"])
                missing = [n for n in names if n not in rec["metrics"]]
                if missing:
                    problems.append("missing metrics: " + ", ".join(missing))
                if rec["failed"] or not rec["correct"]:
                    problems.append(f"{rec['failed']} failed operations: {rec['errors']}")
            ok &= not problems
            print(f"smoke {workload} trace={int(trace)}: "
                  + ("ok" if not problems else "FAIL " + "; ".join(problems)), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--collect", metavar="FILE", help="repeated runs into FILE")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset for --collect")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    check_checkout()
    spec = bench_spec()
    if args.smoke:
        return cmd_smoke(spec)
    if args.collect:
        return cmd_collect(args, spec)
    if not args.workload:
        parser.error("--workload, --collect or --smoke is required")
    return cmd_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
