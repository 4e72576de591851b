#!/usr/bin/env python3
"""End-to-end benchmark of the adawave CLI and serve paths.

    python3 perfbench/run.py --workload noisy2d|sparse4d --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The first run builds the
`adawave` binary and the benchmark's own helper (perfbench/tool) into
$CARGO_TARGET_DIR (default .bench_build); work files go to
.perfbench_work/. Both are listed in .gitignore.

A run generates the workload's input from --seed, sets up (input, trained
model, `adawave serve --workers 2` daemon) five times, then passes every
parity gate before anything is timed:

  * `cluster`, `predict`, `stream --prescan --checkpoint` and
    `shard-ingest 1/2` + `shard-ingest 2/2` + `merge-accumulators` write
    byte-identical labels;
  * the served predict-batch body equals `adawave predict --output csv` on
    the same rows, and every single-point answer equals the predict label
    of its row.

With --trace 0 it then times, in interleaved rounds for --seconds, each
CLI path as a whole process and a saturated predict-batch serve step (see
tool/src/load.rs), rescales every sample to the reference host speed (see
Probes), and prints every end-to-end metric of BENCHMARK.json. With
--trace 1 it runs the open-loop serve phase and rate ladder, then
the traced replay (tool/src/trace.rs) and prints every per-layer metric;
layers.json says where each comes from, which end-to-end metric it should
move and on which workload. Either way the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

A failed operation (nonzero exit, non-200 or wrong answer, parity
mismatch) is counted; a failed gate withholds the timings and the run
exits 1.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# Why each workload exists is recorded in BENCHMARK.json; the sizes are
# the issue's: ~1M 2-d points with ~16k occupied cells (cache-resident),
# and 200k 4-d points at scale 32 with ~140k cells (beyond L2).
WORKLOADS = {
    "noisy2d": {"scene": "noisy2d", "per_cluster": 50_000, "params": {}},
    "sparse4d": {"scene": "sparse4d", "per_cluster": 10_000, "params": {"scale": "32"}},
}
SMOKE_PER_CLUSTER = 300
# Checkpoint twice per stream, so artifact writes sit next to ingest.
CHECKPOINTS_PER_STREAM = 2
BATCH_ROWS = 8192  # the CLI's default --batch-rows
SETUP_REPS = 5

# The serve phase. Two keep-alive connections; single-point requests at
# the light and heavy rates; one predict-batch of BATCH_BODY_ROWS rows
# every 1/BATCH_RATE seconds on the same connections. The ladder climbs
# until single-point p99 reaches LIMIT_US or the backlog grows.
SERVE_WORKERS = 2
SAMPLE = 1024
BATCH_BODY_ROWS = 20_000
BATCH_RATE = 10
LIGHT_RPS = 2_000
HEAVY_RPS = 8_000
LADDER = [35_000, 42_000, 50_000, 59_000, 71_000, 84_000, 100_000]
LIMIT_US = 50_000
# Batches only, all due at once (far faster than the daemon can answer
# them) on one connection, so one worker stays busy: the throughput it
# sustains. One connection, because a burst of contention on a 2-vCPU
# host halves what two workers do together. A step sends RATE x SECONDS
# batches, half a second's work or more for the daemon.
SATURATE_BATCH_RATE = 1_000
SATURATE_SECONDS = 0.1

# The timed rounds of --trace 0 (see end_to_end).
ROUND = ("cluster", "predict", "stream", "saturate", "shard_merge", "cluster", "predict", "stream",
         "saturate")
MIN_ROUNDS = 3

# The host-speed probe (tool/src/calib.rs). On a shared host the cores'
# speed drifts by a third and more within a minute, so every timed sample
# is bracketed by probes and rescaled to the speed at which one probe
# pass takes PROBE_REF_S, its time on an idle 2-vCPU Xeon VM: a reported
# second is a second at that speed. The probe uses none of the code
# under test, so only the program's own speed moves the rescaled figures.
PROBE_POINTS = 100_000
PROBE_REF_S = 0.05

PROCESS_TIMEOUT_S = 120


START = time.perf_counter()


def log(message):
    print(f"[{time.perf_counter() - START:7.2f}s] {message}", file=sys.stderr, flush=True)


def die(message):
    log(f"perfbench: {message}")
    sys.exit(1)


class Run:
    """Paths, binaries and the operation tally of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.per_cluster = SMOKE_PER_CLUSTER if args.smoke else self.workload["per_cluster"]
        self.points = self.per_cluster * 20
        self.checkpoint_every = max(1, self.points // CHECKPOINTS_PER_STREAM)
        self.batch_rows = 200 if args.smoke else BATCH_BODY_ROWS
        self.sample = 64 if args.smoke else SAMPLE
        self.work = os.path.join(WORK_ROOT, args.workload)
        self.attempted = 0
        self.failed = 0
        self.server = None
        self.addr = None
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(ROOT, target)
        self.adawave = os.path.join(self.target, "release", "adawave")
        self.tool = os.path.join(self.target, "release", "perfbench")

    def path(self, name):
        return os.path.join(self.work, name)

    def params(self):
        flags = []
        for key, value in self.workload["params"].items():
            flags += [f"--{key}", value]
        return flags

    def tally(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"perfbench: failed: {what}")
        return ok


def check_checkout():
    """Refuse to run outside a source checkout (nothing to build)."""
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/tool/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"{needed} is missing: run from the root of an adawave source checkout")


def build(run):
    env = dict(os.environ, CARGO_TARGET_DIR=run.target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "adawave-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "tool", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def output(cmd):
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd[0]} {cmd[1] if len(cmd) > 1 else ''}: {done.stderr.strip()}")
    return done.stdout.strip()


def host_block(run):
    def probe(cmd):
        try:
            return output(cmd)
        except (OSError, RuntimeError, subprocess.SubprocessError):
            return "unavailable"

    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = probe(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "available_parallelism": probe([run.tool, "host"]),
        "ADAWAVE_THREADS": os.environ.get("ADAWAVE_THREADS", "unset"),
        "rustc": probe(["rustc", "-V"]),
        "commit": commit,
    }


def timed(cmd):
    """Run one process to completion: (wall seconds, peak RSS MB, ok)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"perfbench: {' '.join(cmd[:2])} exited {proc.returncode}: {err.decode().strip()}")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode == 0


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# ---------------------------------------------------------------------------
# set-up: input, trained model, serve daemon


def start_server(run):
    proc = subprocess.Popen(
        [run.adawave, "serve", "--model", f"m={run.path('model.awm')}",
         "--addr", "127.0.0.1:0", "--workers", str(SERVE_WORKERS)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    ready, _, _ = select.select([proc.stdout], [], [], 30)
    banner = proc.stdout.readline().decode() if ready else ""
    # "serving 1 model(s) on http://127.0.0.1:PORT with 2 worker(s)"
    words = banner.split()
    if "on" not in words:
        stop_server(proc)
        die(f"serve did not start: {banner!r}")
    run.server = proc
    return words[words.index("on") + 1].removeprefix("http://")


def stop_server(proc):
    """Stop a daemon and wait until it has exited."""
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def probe(run):
    """Seconds of one pass of the host-speed probe."""
    return float(output([run.tool, "calib", "--points", str(PROBE_POINTS)]))


class Probes:
    """Rescales timed samples to the reference host speed. A probe runs
    now and again after every sample; a sample is scaled by the mean of
    the two probes around it."""

    def __init__(self, run):
        self.run = run
        self.last = probe(run)

    def rescale(self, seconds):
        after = probe(self.run)
        host = (self.last + after) / 2
        self.last = after
        return seconds * PROBE_REF_S / host


def setup(run):
    """Input CSV, trained model, batch body, ready daemon: seconds."""
    os.sync()  # write back earlier files before, not while, this is timed
    start = time.perf_counter()
    output([run.tool, "gen", "--scene", run.workload["scene"], "--seed", str(run.args.seed),
            "--per-cluster", str(run.per_cluster), "--out", run.path("data.csv")])
    output([run.adawave, "cluster", "--input", run.path("data.csv"), "--quiet",
            "--save-model", run.path("model.awm")] + run.params())
    output([run.tool, "batch", "--data", run.path("data.csv"), "--seed", str(run.args.seed),
            "--rows", str(run.batch_rows), "--body", run.path("batch_body.csv"),
            "--csv", run.path("batch.csv")])
    run.addr = start_server(run)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# the CLI paths, each a list of processes; outputs carry a name prefix


def cli_paths(run, prefix):
    p = lambda name: run.path(prefix + name)  # noqa: E731
    data, every = run.path("data.csv"), str(run.checkpoint_every)
    shard = lambda i: [run.adawave, "shard-ingest", "--input", data, "--shard", f"{i}/2",  # noqa: E731
                       "--out", p(f"shard{i}.awa")] + run.params()
    return {
        "cluster": [[run.adawave, "cluster", "--input", data, "--output", "csv",
                     "--out", p("cluster.csv"), "--quiet"] + run.params()],
        "predict": [[run.adawave, "predict", "--input", data, "--model", run.path("model.awm"),
                     "--output", "csv", "--out", p("predict.csv"), "--quiet"]],
        "stream": [[run.adawave, "stream", "--input", data, "--prescan",
                    "--checkpoint", p("stream.awa"), "--checkpoint-every", every,
                    "--output", "csv", "--out", p("stream.csv"), "--quiet"] + run.params()],
        "shard_merge": [shard(1), shard(2),
                        [run.adawave, "merge-accumulators", "--input", p("shard1.awa"),
                         "--input", p("shard2.awa"), "--output", "csv",
                         "--out", p("merged.csv"), "--quiet"]],
    }


LABEL_FILES = {"cluster": "cluster.csv", "predict": "predict.csv", "stream": "stream.csv",
               "shard_merge": "merged.csv"}


def run_path(run, name, procs, prefix):
    """Run one CLI path: (wall seconds, peak RSS MB, ok)."""
    checkpoint = run.path(prefix + "stream.awa")
    if name == "stream" and os.path.exists(checkpoint):
        os.remove(checkpoint)  # an existing checkpoint would be resumed
    wall, rss, ok = 0.0, 0.0, True
    for cmd in procs:
        w, r, good = timed(cmd)
        wall, rss, ok = wall + w, max(rss, r), ok and good
    return wall, rss, ok


def remove_accumulators(run, prefix):
    """Delete accumulator files as soon as they are checked: tens of MB
    of dirty pages left behind would slow the next round's writes."""
    for name in ("stream.awa", "shard1.awa", "shard2.awa"):
        if os.path.exists(run.path(prefix + name)):
            os.remove(run.path(prefix + name))


def load(run, extra, connections=2):
    """Run the load generator: its per-step summaries."""
    cmd = [run.tool, "load", "--addr", run.addr, "--model", "m",
           "--connections", str(connections),
           "--batch-expect", run.path("batch_expected.csv"),
           "--batch-rate", str(BATCH_RATE), "--limit-us", str(LIMIT_US)] + extra
    steps = []
    for line in output(cmd).splitlines():
        log(line)
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        steps.append({k: (v if k == "name" else float(v)) for k, v in fields.items()})
    for step in steps:
        run.attempted += int(step["singles"] + step["batches"])
        run.failed += int(step["failed"])
    return steps


def gates(run):
    """Every parity gate; True when all pass."""
    ok = True
    for name, procs in cli_paths(run, "").items():
        ok &= run.tally(run_path(run, name, procs, "")[2], f"gate: {name} process")
    reference = run.path("cluster.csv")
    for name in ("predict", "stream", "shard_merge"):
        ok &= run.tally(same_bytes(reference, run.path(LABEL_FILES[name])),
                        f"gate: {name} labels differ from cluster")
    ok &= run.tally(timed([run.adawave, "predict", "--input", run.path("batch.csv"),
                           "--model", run.path("model.awm"), "--output", "csv",
                           "--out", run.path("batch_expected.csv"), "--quiet"])[2],
                    "gate: batch predict process")
    if not ok:
        return False
    failed_before = run.failed
    load(run, ["--data", run.path("data.csv"), "--labels", run.path("predict.csv"),
               "--sample", str(run.sample), "--seed", str(run.args.seed),
               "--batch-body", run.path("batch_body.csv"), "--record", run.path("targets.rec"),
               "--steps", f"gate:4000:{run.sample / 4000}"])
    # Flush the set-up's files now; left dirty, the kernel would write
    # them back in the middle of the timed rounds.
    os.sync()
    return run.failed == failed_before


# ---------------------------------------------------------------------------
# the serve phase


def serve_steps(run):
    """One short serve phase: a light step, then a heavy step."""
    seconds = run.args.seconds
    return ["--targets", run.path("targets.rec"),
            "--steps", f"light:{LIGHT_RPS}:{seconds / 60},heavy:{HEAVY_RPS}:{seconds / 120}"]


def ladder(run):
    """The rate ladder, which stops at the first rung that misses the limit:
    the achieved rate of the highest rung that met it (0 if none did)."""
    steps = load(run, ["--targets", run.path("targets.rec"), "--steps", "",
                       "--ladder", ",".join(map(str, LADDER)),
                       "--ladder-seconds", str(run.args.seconds / 100)])
    passed = [s["achieved_rps"] for s in steps if s["pass"]]
    return passed[-1] if passed else 0.0


def saturate(run):
    """Batch requests back to back on one connection: batches per second."""
    steps = load(run, ["--targets", run.path("targets.rec"), "--steps",
                       f"saturate:0:{SATURATE_SECONDS}:{SATURATE_BATCH_RATE}"],
                 connections=1)
    return steps[0]["batch_rps"]


def serve_summary(steps, max_rates):
    """The serve metrics out of the light/heavy steps and ladder climbs of
    a run. Interference only ever lowers the rate a climb sustains, so the
    best climb is the steadiest estimate of what the daemon can do."""
    def median(name, key):
        return statistics.median(s[key] for s in steps if s["name"] == name)

    return {
        "single_p50_us.light": median("light", "p50_us"),
        "single_p99_us.light": median("light", "p99_us"),
        "single_p50_us.heavy": median("heavy", "p50_us"),
        "single_p99_us.heavy": median("heavy", "p99_us"),
        "batch_p50_ms": median("light", "batch_p50_ms"),
        "max_rate_rps": max(max_rates),
        "loadgen.late_p99_us": median("light", "late_p99_us"),
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def end_to_end(run, setups):
    cli = {name: [] for name in LABEL_FILES}
    batch_walls = []
    # Rounds interleave every CLI path and the saturated serve step, so
    # that interference lands on every metric alike, and repeat until
    # --seconds have passed; every step but shard_merge, the longest, runs
    # twice a round. Every sample is rescaled to the reference host speed.
    paths = cli_paths(run, "t_")
    probes = Probes(run)
    deadline = time.perf_counter() + run.args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for name in ROUND:
            if name == "saturate":
                batch_walls.append(probes.rescale(1.0 / saturate(run)))
                continue
            wall, rss, ok = run_path(run, name, paths[name], "t_")
            ok = ok and same_bytes(run.path(LABEL_FILES[name]),
                                   run.path("t_" + LABEL_FILES[name]))
            remove_accumulators(run, "t_")
            # Write this path's files back now, not while the next is timed.
            os.sync()
            scaled = probes.rescale(wall)
            if run.tally(ok, f"{name} run"):
                cli[name].append((scaled, rss))
            log(f"{name}: {wall:.3f} s, {scaled:.3f} s rescaled, {rss:.1f} MB")
        rounds += 1
        log(f"round {rounds} done")

    def rate(name):
        walls = [w for w, _ in cli[name]]
        return run.points / statistics.median(walls) if walls else 0.0

    return {
        "setup_s": statistics.median(setups),
        "serve_batch_pts_per_s": run.batch_rows / statistics.median(batch_walls),
        "cluster_pts_per_s": rate("cluster"),
        "predict_pts_per_s": rate("predict"),
        "stream_pts_per_s": rate("stream"),
        "shard_merge_pts_per_s": rate("shard_merge"),
        "peak_rss_mb": max(statistics.median(r for _, r in runs) for runs in cli.values() if runs),
        "accumulator_bytes": os.path.getsize(run.path("stream.awa")),
        "ami": float(output([run.tool, "ami", "--data", run.path("data.csv"),
                             "--labels", run.path("cluster.csv")])),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def layer_value(run, report, source):
    """One per-layer metric out of one traced replay (see layers.json)."""
    kind, _, what = source.partition(":")
    if kind == "self":
        root, layer = what.split("/")
        return report["self_s"][root][layer]
    if kind == "count":
        return report["counts"][what]
    if kind == "ratio":
        top, bottom = what.split("/")
        return report["counts"][top] / report["counts"][bottom]
    if kind == "file":
        return os.path.getsize(run.path(what))
    return report[what]


def per_layer(run, layers):
    os.makedirs(run.path("trace"), exist_ok=True)
    params = ",".join(f"{k}={v}" for k, v in run.workload["params"].items())
    cluster = cli_paths(run, "w_")["cluster"][0]
    reports, steps, max_rates = [], [], []
    for rep in range(max(1, min(3, int(run.args.seconds // 10)))):
        steps += load(run, serve_steps(run))
        max_rates.append(ladder(run))
        # The untraced process right before each replay: their difference
        # is what the spans cannot see (exec, start-up, page faults, exit).
        wall = timed(cluster)[0]
        report = json.loads(output([
            run.tool, "trace", "--data", run.path("data.csv"), "--model", run.path("model.awm"),
            "--params", params, "--batch-rows", str(BATCH_ROWS),
            "--checkpoint-every", str(run.checkpoint_every),
            "--targets", run.path("targets.rec"),
            "--batch-expect", run.path("batch_expected.csv"),
            "--cli", run.work, "--out", run.path("trace"), "--rep", str(rep),
            "--spans", run.path(f"spans-{rep}.tsv")]))
        # The replay exits nonzero on any output that differs from the CLI's.
        run.tally(True, "traced replay")
        report["cli.unattributed_s"] = wall - report["root_s"]["cmd.cluster"]
        report["trace.overhead_ratio"] = report["overhead_ratio"]
        reports.append(report)
    for report in reports:
        report.update(serve_summary(steps, max_rates))
    return {name: statistics.median(layer_value(run, r, layer["source"]) for r in reports)
            for name, layer in layers.items()}


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs through the same gates (self-test)")
    args = parser.parse_args()
    check_checkout()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    run = Run(args)
    build(run)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)
    print("host " + json.dumps(host_block(run)), flush=True)

    try:
        setups = []
        probes = Probes(run)
        for _ in range(1 if args.trace else SETUP_REPS):
            if run.server:
                stop_server(run.server)
                run.server = None
            setups.append(probes.rescale(setup(run)))
        log(f"set-up x{len(setups)} done")
        correct = gates(run)
        log(f"gates {'passed' if correct else 'FAILED'}")
        if correct:
            metrics = per_layer(run, layers) if args.trace else end_to_end(run, setups)
        else:
            metrics = {"ok_ratio": (run.attempted - run.failed) / run.attempted}
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        die(str(e))
    finally:
        if run.server:
            stop_server(run.server)
    correct = correct and run.failed == 0

    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = {}
    for name, spec in specs.items():
        if name in metrics:
            print(f"metric {name} {metrics[name]} {spec['unit']}")
            result[name] = {"value": metrics[name], "unit": spec["unit"]}
    remove_accumulators(run, "")
    os.remove(run.path("data.csv"))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
