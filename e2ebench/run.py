#!/usr/bin/env python3
"""End-to-end COPS-HTTP benchmark runner.

    python3 e2ebench/run.py --workload small_keepalive --seed 1 --seconds 10 --trace 0

Run from the repository root.  It builds e2ebench/ (and the repository
libraries it links) into .bench_build/, prepares the file sets under
.bench_data/, runs one workload with the cops_e2e driver, checks the result
line against BENCHMARK.json, and prints it as the last line of stdout.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DATA = ROOT / ".bench_data"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    build_dir = BUILD / "e2e"
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "cops_e2e",
                    "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "cops_e2e"


def source_id():
    """The git commit when the checkout is a repository, else a hash of src/."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha1:" + h.hexdigest()[:16]


def schema_errors(report, metrics):
    """Why `report` does not match the result schema ([] when it does).

    `metrics` maps each expected metric name to its unit.
    """
    errs = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"keys {sorted(report)}")
    if not isinstance(report.get("correct"), bool):
        errs.append("correct is not a bool")
    for key in ("attempted", "failed"):
        v = report.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errs.append(f"{key} is not a whole number")
    if isinstance(report.get("attempted"), int) and report["attempted"] < 1:
        errs.append("attempted < 1")
    got = report.get("metrics")
    if not isinstance(got, dict):
        return errs + ["metrics is not an object"]
    if set(got) != set(metrics):
        errs.append(f"metric names differ: missing {sorted(set(metrics) - set(got))}, "
                    f"extra {sorted(set(got) - set(metrics))}")
    for name, m in got.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errs.append(f"{name}: not {{value, unit}}")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v \
                or v in (float("inf"), float("-inf")):
            errs.append(f"{name}: value is not a finite number")
        if name in metrics and m["unit"] != metrics[name]:
            errs.append(f"{name}: unit {m['unit']!r} != {metrics[name]!r}")
    return errs


def schema_selftest(metrics):
    """The schema check must reject malformed reports."""
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u} for n, u in metrics.items()}}
    assert not schema_errors(good, metrics), schema_errors(good, metrics)
    bad = [
        {k: v for k, v in good.items() if k != "failed"},
        dict(good, extra=1),
        dict(good, attempted=0),
        dict(good, correct="yes"),
        dict(good, metrics={}),
        dict(good, metrics=dict(good["metrics"], bogus={"value": 1, "unit": "s"})),
    ]
    if metrics:
        name = next(iter(metrics))
        bad.append(dict(good, metrics=dict(good["metrics"],
                                           **{name: {"value": "1", "unit": metrics[name]}})))
        bad.append(dict(good, metrics=dict(good["metrics"],
                                           **{name: {"value": 1, "unit": "furlong"}})))
    for b in bad:
        if not schema_errors(b, metrics):
            fail(f"schema selftest: accepted a malformed report {b}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "src/nserver/server.hpp",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from a full checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in spec[section]}
    schema_selftest(metrics)

    binary = build()
    DATA.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(DATA), "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"cops_e2e did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"cops_e2e exited with {proc.returncode}")
    report = json.loads(lines[-1])
    errs = schema_errors(report, metrics)
    if errs:
        sys.stdout.write(proc.stdout)
        fail("result does not match the schema: " + "; ".join(errs))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
