#!/usr/bin/env python3
"""Self-tests of the benchmark itself:

    python3 perfbench/selftest.py

* names  — every metric name in BENCHMARK.json uses only [A-Za-z0-9_.-]
  and is used once; every per-layer metric has an entry in layers.json,
  and each entry names metrics it should move (end-to-end ones, or the
  serve figures carried unbounded among the per-layer metrics, see
  README.md) and workloads that BENCHMARK.json defines;
* seeds  — the same seed writes identical input bytes and another seed
  different ones, for every scene;
* smoke  — every workload at a tiny size, untraced and traced, through
  the same parity gates: each run must print a correct result carrying
  every metric of its kind.

Exits 0 when all pass. Work files go to .perfbench_work/selftest/.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_names():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    problems = []
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += list(workloads)
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    if set(workloads) != set(bench.WORKLOADS):
        problems.append(f"workloads {sorted(workloads)} != run.py's {sorted(bench.WORKLOADS)}")
    per_layer = {m["name"] for m in spec["per_layer"]}
    if per_layer != set(layers):
        problems.append(f"per-layer metrics without a layers.json entry: "
                        f"{sorted(per_layer ^ set(layers))}")
    serve_figures = {n for n, layer in layers.items() if layer["source"] == f"run:{n}"}
    for name, layer in layers.items():
        if not layer["moves"]:
            problems.append(f"{name} moves no metric")
        for metric in layer["moves"]:
            if metric not in end_to_end | serve_figures:
                problems.append(f"{name} moves unknown metric {metric}")
        for workload in layer["on"]:
            if workload not in workloads:
                problems.append(f"{name} shows on unknown workload {workload}")
    return problems


def check_seeds(tool, work):
    problems = []
    for scene in ("noisy2d", "sparse4d"):
        digests = []
        for i, seed in enumerate((7, 7, 8)):
            out = os.path.join(work, f"{scene}-{i}.csv")
            subprocess.run([tool, "gen", "--scene", scene, "--seed", str(seed),
                            "--per-cluster", "200", "--out", out], check=True)
            with open(out, "rb") as f:
                digests.append(hashlib.sha256(f.read()).hexdigest())
        if digests[0] != digests[1]:
            problems.append(f"{scene}: the same seed wrote different inputs")
        if digests[0] == digests[2]:
            problems.append(f"{scene}: different seeds wrote the same input")
    return problems


def check_smoke():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in sorted(bench.WORKLOADS):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"]
            done = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace={trace}: no result (exit {done.returncode})"
                                f"\n{done.stderr[-1500:]}")
                continue
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: not correct: {lines[-1][:300]}")
            if set(result["metrics"]) != wanted:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ wanted)}")
    return problems


def main():
    bench.check_checkout()
    target = os.path.join(bench.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench.build(types.SimpleNamespace(target=target))
    work = os.path.join(bench.WORK_ROOT, "selftest")
    os.makedirs(work, exist_ok=True)
    failures = 0
    for name, check in (
        ("names", check_names),
        ("seeds", lambda: check_seeds(os.path.join(target, "release", "perfbench"), work)),
        ("smoke", check_smoke),
    ):
        problems = check()
        failures += len(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
