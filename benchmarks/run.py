"""End-to-end benchmark of the vortexcage CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload run is a fresh
``python3 -m vortexcage.cli`` process with ``PYTHONPATH=src``, closed loop,
one at a time, repeated until S seconds are used (at least ``MIN_RUNS``).

--trace 0   times whole processes and prints the end-to-end metrics
            (medians over the runs; ``setup_s`` over ``SETUP_PROBES``
            fresh set-up processes).
--trace 1   alternates untraced runs with runs of ``tracing.py`` and prints
            the per-layer metrics (medians over the traced runs) plus the
            tracing overhead.

Every run's outputs are checked against ``reference/<workload>/`` and the
runs of one invocation must write byte-identical files; each mismatch fails
the items it touches.  The seed only sets the interleaved order of runs and
set-up probes, since the workloads have no random input.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With ``--record-reference`` the workload runs once and its outputs become
the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import verify   # noqa: E402

MIN_RUNS = 2           # untraced runs per invocation: repeat identity needs two
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
BUDGET_S = 170         # an invocation must end well within 180 s
BLAS_THREADS = 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}
PER_LAYER = {**tracing.METRICS, "trace.overhead_s": "s"}


@dataclass(frozen=True)
class Workload:
    args: tuple        # CLI arguments after ``--out DIR``
    threads: int       # the CLI's --threads value
    kind: str          # output checker: scan, check or planes

    @property
    def command(self):
        return self.args[-1]

    @property
    def overrides(self):
        return [v for k, v in zip(self.args, self.args[1:]) if k == "--override"]


# Why each workload is here: see BENCHMARK.json and README.md.
WORKLOADS = {
    "spectrum": Workload(("--threads", "1", "spectrum"), 1, "scan"),
    "charge-sweep-t1": Workload(("--threads", "1", "charge-sweep"), 1, "scan"),
    "check": Workload(("check",), 1, "check"),
    "planes-256": Workload(("--override", "scan.plane_resolution=256", "planes"),
                           1, "planes"),
}


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def cpu_count():
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment of every child: the checkout's sources first, and BLAS
    pinned to one thread, so --threads x BLAS threads <= available cores for
    every workload.  (Two BLAS threads beside --threads 1 made ``check``
    ~25% slower and its CPU time noisier on a 2-core machine: its small
    matmuls gain nothing from a second thread.)"""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, env, log_dir):
    """Run one process to completion; wall time from spawn to exit, CPU time
    and peak RSS from the child's own rusage (not RUSAGE_CHILDREN)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path = log_dir / "stdout.txt"
    with open(out_path, "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        reaped = {}
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)

        def reap():
            _pid, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        reaper = threading.Thread(target=reap)
        reaper.start()
        try:
            reaper.join(CHILD_TIMEOUT_S)
        finally:
            # timeout, or the benchmark itself interrupted (an interrupted
            # join can leave is_alive() False while the child still runs)
            if "status" not in reaped:
                proc.kill()
                reaper.join()
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    usage = reaped["usage"]
    return ChildResult(
        wall_s=reaped["end"] - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,     # ru_maxrss is in KiB
        exit_code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"))


def digest_tree(path):
    """File name -> sha256 of every output file of a run."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def git_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def numpy_version():
    import numpy
    return numpy.__version__


class Session:
    """All runs of one invocation for one workload."""

    def __init__(self, name, workload, seed, seconds, trace):
        self.name = name
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.env = child_env()
        self.work = WORK / name
        self.ref_dir = REFERENCE / name
        self.spans_path = self.work / "spans.json"
        self.order = []
        self.results = {"plain": [], "traced": [], "probe": []}
        self.layer_runs = []
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digests = None
        self.count = 0

    def cli_argv(self, kind, out_dir):
        args = ["--out", str(out_dir), *self.workload.args]
        if kind == "traced":
            return [sys.executable, str(BENCH / "tracing.py"),
                    str(self.spans_path), "--", *args]
        return [sys.executable, "-m", "vortexcage.cli", *args]

    def probe(self):
        argv = [sys.executable, str(BENCH / "setup_probe.py"),
                self.workload.command, *self.workload.overrides]
        res = run_child(argv, self.env, self.work / "probe")
        if res.exit_code != 0:
            raise RuntimeError(f"set-up probe exited {res.exit_code}")
        return res

    def execute(self, kind):
        self.order.append(kind)
        if kind == "probe":
            self.results["probe"].append(self.probe())
            return
        self.count += 1
        out_dir = self.work / f"run{self.count}"
        res = run_child(self.cli_argv(kind, out_dir), self.env, self.work / "log")
        self.results[kind].append(res)
        outcome = verify.check_outputs(self.workload.kind, self.ref_dir, out_dir,
                                       res.stdout, res.exit_code)
        if kind == "traced" and self.spans_path.exists():
            trace = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
            self.layer_runs.append(tracing.layer_metrics(
                trace["spans"], trace["counters"], self.workload.threads))
        if res.exit_code == 0:
            digests = digest_tree(out_dir)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                outcome.fail_all("output files differ from the first run")
        self.attempted += outcome.items
        self.failed += len(outcome.failed)
        self.notes += [f"{kind} run {self.count}: {n}" for n in outcome.notes]
        shutil.rmtree(out_dir, ignore_errors=True)

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        start = time.perf_counter()
        self.probe()                         # warm-up: bytecode caches, page cache
        if self.trace:
            # traced and untraced runs are compared with each other
            cycle = ["traced", "plain"]
            first = list(cycle)
        else:
            cycle = ["plain"]
            first = ["plain"] * MIN_RUNS + ["probe"] * SETUP_PROBES
        self.rng.shuffle(first)
        for kind in first:
            self.execute(kind)
        if self.rng.random() < 0.5:
            cycle.reverse()
        while True:
            for kind in cycle:
                elapsed = time.perf_counter() - start
                last = self.results[kind][-1].wall_s
                if elapsed + last > min(self.seconds, BUDGET_S):
                    return
                self.execute(kind)

    def metrics(self):
        plain = self.results["plain"]
        wall = statistics.median(r.wall_s for r in plain)
        if self.trace:
            if not self.layer_runs:
                raise RuntimeError("no traced run wrote its spans")
            out = {m: statistics.median(run[m] for run in self.layer_runs)
                   for m in tracing.METRICS}
            traced = statistics.median(r.wall_s for r in self.results["traced"])
            out["trace.overhead_s"] = traced - wall
            return {m: {"value": out[m], "unit": PER_LAYER[m]} for m in PER_LAYER}
        setup = statistics.median(r.wall_s for r in self.results["probe"])
        items = verify.items_of(self.workload.kind, self.ref_dir)
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "items_per_s": items / (wall - setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
        }
        return {m: {"value": values[m], "unit": END_TO_END[m]} for m in END_TO_END}


def record_reference(name, workload):
    out_dir = WORK / name / "record"
    shutil.rmtree(out_dir, ignore_errors=True)
    res = run_child([sys.executable, "-m", "vortexcage.cli", "--out", str(out_dir),
                     *workload.args], child_env(), WORK / name / "log")
    if res.exit_code != 0:
        print(f"{name}: exit code {res.exit_code}", file=sys.stderr)
        return 1
    ref_dir = REFERENCE / name
    shutil.rmtree(ref_dir, ignore_errors=True)
    verify.record(workload.kind, out_dir, res.stdout, ref_dir)
    shutil.rmtree(WORK / name, ignore_errors=True)
    print(f"recorded {ref_dir.relative_to(ROOT)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vortexcage" / "cli.py").is_file():
        print(f"benchmark: no vortexcage sources under {ROOT / 'src'}; run it "
              f"from the root of a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.record_reference:
        return record_reference(args.workload, workload)
    if not (REFERENCE / args.workload).is_dir():
        print(f"benchmark: no reference outputs for {args.workload}",
              file=sys.stderr)
        return 2

    session = Session(args.workload, workload, args.seed, args.seconds,
                      bool(args.trace))
    try:
        session.run()
        metrics = session.metrics()
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(session.work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cli_args": list(workload.args), "order": session.order,
        "nproc": cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy_version(),
        "git": git_hash(),
        "wall_s_runs": {k: [round(r.wall_s, 4) for r in v]
                        for k, v in session.results.items()},
    }
    print("run record: " + json.dumps(record))
    for note in session.notes:
        print(f"mismatch: {note}")
    rate = session.failed / session.attempted if session.attempted else 1.0
    print(f"error_rate {rate:.6g} fraction ({session.failed} of "
          f"{session.attempted} items failed)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = session.failed == 0 and session.attempted > 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
