"""Benchmark of the `wqcm` command-line verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is run from `src` as it stands;
nothing is installed.  Workloads are defined in `workloads.py`.

Closed loop, one client: the benchmark starts one `wqcm` command as a child
process, waits for it to exit, checks its report against the expected
(check id, verdict, points) signature and only then starts the next one.
With `--trace 0` it measures, over S seconds:

  cmd_s_p50     median time of one command, spawn to exit
  points_per_s  sample points verified per second of cmd_s_p50
  setup_s       median time of a set-up probe: a child that starts the
                interpreter, imports wqcm.cli and builds the structure; one
                probe runs before each command
  peak_rss_mb   largest peak RSS of any command (from wait4)

The shared host's speed drifts by up to 1.6x over minutes, longer than a
run, so raw wall times of two runs minutes apart are not comparable.  A
fixed reference loop (`reference()`: the small numpy contractions and
Python float arithmetic `wqcm` spends its time on) therefore runs in this
process before each set-up probe and once after the last command.  Each
child's wall time is divided by the mean of the two reference times around
its step and multiplied by REF_NOMINAL_S, and the times above are medians
of these: seconds on a host where the reference loop takes REF_NOMINAL_S.
The raw wall times and reference times are on the info line.  The
benchmark and its children are pinned to one CPU, since the two vCPUs of a
small VM speed up and slow down independently: the reference loop then
measures the CPU the commands run on.

With `--trace 1` it alternates untraced commands with the same command run
under `tracer.py`, and reports per-module counts and raw (unscaled) times.
The last line of stdout is the result object; the line before it holds the
environment, the sample counts and the raw command times.
"""

from __future__ import annotations

import argparse
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

import numpy as np

from workloads import (
    HEAVY_DEPTH,
    SEED_RANGE,
    WORKLOADS,
    expected_signature,
    heavy_structure,
    signature,
)

ROOT = Path.cwd()
WORK = ROOT / "perfbench" / ".work"
MIN_STEPS = 3
# A run must exit within 180 s: no child starts after DEADLINE_S, and a child
# still running at RUN_LIMIT_S is killed.
DEADLINE_S = 150.0
RUN_LIMIT_S = 170.0

CLI = "import sys; sys.path.insert(0, 'src'); sys.argv[0] = 'wqcm'; from wqcm.cli import main; main()"
SETUP = """
import sys; sys.path.insert(0, 'src')
import wqcm.cli
from pathlib import Path
from wqcm import catalog, exprdsl, structure
kind, *rest = sys.argv[1:]
if kind == 'file':
    sdef = exprdsl.load_structure_def(Path(rest[0]).read_bytes())
else:
    key, n, s = rest
    sdef = catalog.catalog(key, n=int(n), s=None if s == '-' else float(s))
acm = structure.WeakACM(sdef)
import numpy
print(acm.dim, numpy.__version__)
"""

# Rounds and nominal time of one reference loop: REF_NOMINAL_S is about its
# median on a 2-vCPU Intel Xeon VM, so scaled times stay near wall times there.
REF_ROUNDS = 4000
REF_NOMINAL_S = 0.4


def reference() -> float:
    """Wall time of a fixed loop that does the same work on every call:
    7x7 and rank-4 numpy contractions, as in wqcm's curvature and checks,
    and Python float arithmetic."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 7)) / 7.0
    b = rng.standard_normal((7, 7)) / 7.0
    g = rng.standard_normal((7, 7, 7)) / 7.0
    x = rng.standard_normal(7)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        r = np.einsum("lim,mjk->lkij", g, g) - np.einsum("ljm,mik->lkij", g, g)
        acc += float(np.einsum("lkij,i,j,k->l", r, x, x, x) @ x)
        for _ in range(4):
            b = np.einsum("ij,jk->ik", a, b) + a
            acc += float(np.einsum("i,ij,j->", x, b, x))
            for j in range(12):
                acc = acc * 0.5 + j * 0.25
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference loop diverged")
    return elapsed


# Spans that build the structure; setup_s already covers them.
SETUP_SPANS = ("catalog.catalog", "exprdsl.load_structure_def")


@dataclass
class Child:
    """Outcome of one child process."""

    code: int
    wall_s: float
    # Index in Bench.ref_s of the reference loop that began this child's step.
    ref_index: int
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], timeout_s: float, ref_index: int) -> Child:
    """Run the interpreter on argv to completion; time it from spawn to exit
    and read its peak RSS from wait4.  The child is killed after timeout_s."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, cwd=ROOT)
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        # Wait without reaping, so the timer never signals a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        ref_index,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.info: dict = {"workload": workload.name, "seed": seed}
        self.input_path = None
        if workload.builtin is None:
            doc, nodes = heavy_structure(self.rng.randrange(*SEED_RANGE))
            self.input_path = WORK / "heavy.json"
            self.input_path.write_text(json.dumps(doc, indent=1))
            self.info["input"] = {"depth": HEAVY_DEPTH, "nodes": nodes}
        self.source = workload.source(self.input_path)
        self.expected = expected_signature(workload)
        self.setup_args = workload.setup_args(self.input_path)
        self.setup: list[Child] = []
        self.ref_s: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, argv: list[str]) -> Child:
        self.attempted += 1
        return spawn(argv, RUN_LIMIT_S - self.elapsed(), len(self.ref_s) - 1)

    def fail(self, what: str, child: Child | None, reason: str) -> None:
        self.failed += 1
        tail = child.stderr.strip().splitlines()[-3:] if child else []
        print(f"perfbench: {what} failed: {reason} {' | '.join(tail)}", file=sys.stderr)

    # -- set-up -------------------------------------------------------------

    def probe_setup(self) -> None:
        """One set-up probe; it joins self.setup if its output is right."""
        child = self.spawn(["-c", SETUP, *self.setup_args])
        fields = child.stdout.split()
        # Every workload is on the 7-dimensional sasakian-r7 chart.
        if child.code != 0 or len(fields) != 2 or fields[0] != "7":
            self.fail("setup probe", child, f"exit {child.code}, output {child.stdout!r}")
            return
        self.info["numpy"] = fields[1]
        self.setup.append(child)

    # -- commands -------------------------------------------------------------

    def check_report(self, child: Child, report_path: Path) -> dict | None:
        """The report if the command met its oracle, else None."""
        if child.code != 0:
            self.fail("command", child, f"exit {child.code}")
            return None
        try:
            report = json.loads(report_path.read_text())
            got = signature(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail("command", child, f"unreadable report: {exc}")
            return None
        if got != self.expected:
            diff = [g for g, e in zip(got, self.expected) if g != e][:3]
            self.fail("command", child, f"signature differs ({len(got)} checks): {diff}")
            return None
        return report

    def run_command(self, argv_head: list[str], seed: int) -> tuple[Child, dict | None]:
        report_path = WORK / "report.json"
        report_path.unlink(missing_ok=True)
        child = self.spawn([*argv_head, *self.workload.argv(self.source, seed, report_path)])
        return child, self.check_report(child, report_path)

    def loop(self, step) -> None:
        """Call step() back to back, at least MIN_STEPS times, until the next
        call would end past --seconds.  Each step starts with a reference loop
        and a set-up probe, so reference, set-up and commands are sampled
        over the same stretch of time; a last reference loop closes the run."""
        durations = []
        reference()  # warm-up
        while self.elapsed() < DEADLINE_S:
            if len(durations) >= MIN_STEPS:
                if self.elapsed() + statistics.median(durations) > self.seconds:
                    break
            start = time.perf_counter()
            self.ref_s.append(reference())
            self.probe_setup()
            step()
            durations.append(time.perf_counter() - start)
        self.ref_s.append(reference())
        self.info["setup_s"] = [c.wall_s for c in self.setup]
        self.info["ref_s"] = self.ref_s
        if not self.setup:
            raise RuntimeError("no set-up probe succeeded")

    def scaled_s(self, child: Child) -> float:
        """The child's wall time in seconds on a host where the reference
        loop takes REF_NOMINAL_S, judged by the reference loops that begin
        and end its step."""
        i = child.ref_index
        return child.wall_s * REF_NOMINAL_S * 2.0 / (self.ref_s[i] + self.ref_s[i + 1])


def _read_steal_s() -> float:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def end_to_end(bench: Bench) -> dict:
    runs = []
    bench.loop(lambda: runs.append(bench.run_command(["-c", CLI], bench.rng.randrange(*SEED_RANGE))))
    bench.info["cmd_s"] = [c.wall_s for c, _ in runs]
    cmd_s = statistics.median(bench.scaled_s(c) for c, _ in runs)
    return {
        "cmd_s_p50": (cmd_s, "s"),
        "points_per_s": (bench.workload.points / cmd_s, "1/s"),
        "setup_s": (statistics.median(bench.scaled_s(c) for c in bench.setup), "s"),
        "peak_rss_mb": (max(c.rss_mb for c, _ in runs), "MB"),
    }


def span_times(spans) -> tuple[dict, dict, float]:
    """Total and self time per span name, and the time of the top-level spans
    that setup_s does not cover.  Self time is a span's duration minus the
    time of its direct children."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    top = 0.0
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start)
        if parent >= 0:
            pname = spans[parent][0]
            own[pname] = own.get(pname, 0.0) - (end - start)
        elif name not in SETUP_SPANS:
            top += end - start
    return total, own, top


def traced_command(bench: Bench, seed: int) -> dict | None:
    """One command under tracer.py; its trace, or None if it failed."""
    trace_path = WORK / "trace.json"
    trace_path.unlink(missing_ok=True)
    child, report = bench.run_command(["perfbench/tracer.py", str(trace_path), "--"], seed)
    if report is None:
        return None
    try:
        trace = json.loads(trace_path.read_text())
    except (OSError, ValueError) as exc:
        bench.fail("traced command", child, f"unreadable trace: {exc}")
        return None
    trace["wall_s"] = child.wall_s
    trace["report"] = report
    trace["total"], trace["self"], trace["top_s"] = span_times(trace.pop("spans"))
    return trace


def layer_metrics(bench: Bench) -> dict:
    """Per-module metrics and the end-to-end metric each should move:

      exprdsl.eval_jet.*          points_per_s on validate-heavy (most of its
                                  time); a few percent on the check workloads
      catalog.build_s, exprdsl.load_s     setup_s on every workload
      geometry.riemann.*          cmd_s_p50 on check-sasakian only (1,184
                                  calls per command there, 32 on check-weak)
      structure.at.miss_ratio     peak_rss_mb on validate-heavy
      structure.gdot.calls, numpy.einsum.calls, classify.*.calls,
      linalg.jacobi_eigh.calls    cmd_s_p50 on the check workloads
      classify.validate_axioms.self_s     cmd_s_p50 on validate-heavy
      suites.run_*_suite.self_s   cmd_s_p50; they split check-sasakian from
                                  check-weak, as does suites.asserted_ratio
      suites.emit_report.s, cli.unaccounted_s   cmd_s_p50 outside the checks
    """
    # Untraced and traced commands alternate, all on one seed, so the
    # overhead ratio compares the same work under the same machine load.
    seed = bench.rng.randrange(*SEED_RANGE)
    untraced, traces = [], []

    def step():
        child, report = bench.run_command(["-c", CLI], seed)
        if report is not None:
            untraced.append(child.wall_s)
        trace = traced_command(bench, seed)
        if trace is not None:
            traces.append(trace)

    bench.loop(step)
    setup_s = statistics.median(c.wall_s for c in bench.setup)
    if not traces or not untraced:
        raise RuntimeError("no traced or untraced command succeeded")
    counts = traces[0]["counts"]
    for t in traces[1:]:
        if t["counts"] != counts:
            bench.fail("traced command", None, "counts differ between traced repetitions")
            break
    if traces[0]["missing"]:
        print(f"perfbench: targets not found: {traces[0]['missing']}", file=sys.stderr)

    def total(name):
        return statistics.median(t["total"].get(name, 0.0) for t in traces)

    def self_s(name):
        return statistics.median(t["self"].get(name, 0.0) for t in traces)

    report = traces[0]["report"]
    planned = len(report["checks"]) * bench.workload.points
    asserted = sum(c["points"] for c in report["checks"] if c["verdict"] != "skipped")
    at_calls = counts["structure.WeakACM.at"]
    bench.info["trace"] = {
        "untraced_cmd_s": untraced,
        "traced_cmd_s": [t["wall_s"] for t in traces],
        "counts": counts,
    }
    return {
        "exprdsl.eval_jet.calls": (counts["exprdsl.eval_jet"], "count"),
        "exprdsl.eval_jet.s": (total("exprdsl.eval_jet"), "s"),
        "exprdsl.load_s": (total("exprdsl.load_structure_def"), "s"),
        "catalog.build_s": (total("catalog.catalog"), "s"),
        "geometry.riemann.calls": (counts["geometry.riemann"], "count"),
        "geometry.riemann.s": (total("geometry.riemann"), "s"),
        "structure.at.calls": (at_calls, "count"),
        "structure.at.miss_ratio": (
            counts["structure.PointState.__init__"] / at_calls if at_calls else 0.0,
            "ratio",
        ),
        "structure.gdot.calls": (counts["structure.PointState.gdot"], "count"),
        "numpy.einsum.calls": (counts["numpy.einsum"], "count"),
        "classify.quasi_defect.calls": (counts["classify.quasi_defect"], "count"),
        "classify.direction_set.calls": (counts["classify.direction_set"], "count"),
        "classify.f_basis.calls": (counts["classify.f_basis"], "count"),
        "linalg.jacobi_eigh.calls": (counts["linalg.jacobi_eigh"], "count"),
        "classify.validate_axioms.self_s": (self_s("classify.validate_axioms"), "s"),
        "suites.run_identity_suite.self_s": (self_s("suites.run_identity_suite"), "s"),
        "suites.run_curvature_suite.self_s": (self_s("suites.run_curvature_suite"), "s"),
        "suites.run_theorem_suite.self_s": (self_s("suites.run_theorem_suite"), "s"),
        "suites.asserted_ratio": (asserted / planned, "ratio"),
        "suites.emit_report.s": (total("suites.emit_report"), "s"),
        # Taken inside each traced command, so load drift between commands cancels.
        "cli.unaccounted_s": (
            statistics.median(t["wall_s"] - t["top_s"] for t in traces) - setup_s,
            "s",
        ),
        "trace.overhead_ratio": (
            statistics.median(t["wall_s"] for t in traces) / statistics.median(untraced),
            "ratio",
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wqcm" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/wqcm is missing", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    steal0 = _read_steal_s()
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = layer_metrics(bench) if args.trace else end_to_end(bench)
    bench.info.update(
        python=platform.python_version(),
        nproc=os.cpu_count(),
        pinned_cpu=min(os.sched_getaffinity(0)),
        cpu=_cpu_model(),
        steal_s=_read_steal_s() - steal0,
        run_s=bench.elapsed(),
    )
    print(json.dumps({"info": bench.info}))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
