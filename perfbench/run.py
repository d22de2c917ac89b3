#!/usr/bin/env python3
"""Benchmark of the slspec command line: oracle-checked workloads and traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``.
Each op is one ``slspec.cli.main`` call, made in-process on input files
generated from the seed. The loop is closed with one client: an op starts
when the previous one ends. Full passes over the workload's op list repeat
while another pass fits in ``--seconds`` (at least one pass).

Workloads:

* ``inverse-large``: ``inverse --grid 1024`` on K=128 analytic data (DD
  sigma=2x; NT sigma=x, h=1). Almost all time is in the glm layer.
* ``direct-fine``: ``direct`` on M=1024 sigma CSVs at K=128: the four
  constant-potential oracles, seeded singular sigmas (log and jump parts plus
  a drift, DD and ND), and the four known-defect inputs (DD 60x count 1, 3 and
  -9x count 3, 4). Almost all time is in the direct layer; glm is not called.
* ``roundtrip-small``: ``roundtrip`` at the CLI defaults (grid 256, count 64)
  on the four oracles and on two seeded singular sigmas given on M=1024
  (so resampling runs). Direct solve, inverse solve and spectrum replay back
  to back on small problems, so fixed and per-call costs show.

Every output is checked (see ``checks.py``) the first time its op runs in a
process; later runs of the op must reproduce it byte for byte. A failed op
(non-zero exit) or a wrong output counts as a failure.

``--trace 0`` prints the end-to-end metrics. ``setup_s`` is the median wall
time of separate processes that start Python, import slspec and run the
warm-up op pair (a small ``direct`` and a small ``roundtrip``, see
``workloads.probe_ops``). Accuracy figures a workload's own ops do not
produce come from that pair. Times are reported at a reference kernel's
nominal speed to take out the host's drift (``hostspeed.py``); the raw
seconds and the factors are in the record file.

``--trace 1`` is a separate run: one untraced pass, one pass with spans around
the public functions of every slspec module (``tracing.py``), and one traced
pass in a child process with ``OPENBLAS_NUM_THREADS=1``. It prints the
per-layer metrics (raw span times), the tracing overhead and the
single-thread figures. ``--seconds`` does not apply to it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The host record, the
op list and outcomes, and the spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy

import checks
import workloads
from hostspeed import HostSpeed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
# Reference kernel matched to each workload's dominant work (hostspeed.py):
# dense solves for inverse-large, numpy calls from a Python loop elsewhere.
# Set-up is timed against the loop kernel, which leaves this process's BLAS
# threads idle while a set-up process runs.
REFERENCE_KIND = {
    "inverse-large": "lapack",
    "direct-fine": "loop",
    "roundtrip-small": "loop",
}
SETUP_REFERENCE_KIND = "loop"
SETUP_TIMEOUT_S = 60
SINGLE_THREAD_TIMEOUT_S = 100
# JSON has no infinity; a median over mostly failed ops reads as this.
INF_STANDIN = 1e30

# metric: (figure from checks.py, unit, floor, value when no oracle op passed).
# Errors below 1% of the check tolerance are roundoff that a correct change
# may move, so they read as that floor.
ACCURACY = {
    "lam_err_max": ("lam_err", "abs", checks.LAM_TOL / 100, checks.LAM_TOL),
    "alpha_err_max": ("alpha_err", "rel", checks.ALPHA_RTOL / 100, checks.ALPHA_RTOL),
    "sigma_l2_err": ("sigma_l2_err", "L2", 0.0, checks.ROUNDTRIP_L2_TOL),
    "replay_err_max": ("replay_err", "abs", 0.0, checks.REPLAY_TOL),
}
PRODUCES = {
    "direct": ("lam_err", "alpha_err"),
    "inverse": ("sigma_l2_err", "replay_err"),
    "roundtrip": ("sigma_l2_err", "replay_err"),
}


class BenchError(Exception):
    """The benchmark itself could not run."""


@dataclass(eq=False)
class Outcome:
    op: workloads.Op
    seconds: float
    code: int
    outputs: Optional[list]
    message: str
    scale: float = 1.0      # host-speed factor, nominal / reference time
    ok: bool = False
    wrong: bool = False

    @property
    def reported(self) -> float:
        """Op time at the reference kernel's nominal speed."""
        return self.seconds * self.scale


def import_slspec():
    sys.path.insert(0, str(SRC))
    import slspec
    import slspec.cli

    if Path(slspec.__file__).resolve().parent != SRC / "slspec":
        raise BenchError(f"slspec imported from {slspec.__file__}, not from {SRC}")
    return slspec


def blas_threads() -> Optional[int]:
    """OpenBLAS thread count of the numpy build, when it can be asked."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def host_record(args, ops) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [op.describe() for op in ops],
    }


def write_inputs(ops, workdir: Path) -> None:
    for op in ops:
        (workdir / op.input_name).write_text(op.input_text, encoding="ascii")


def execute(sl, op, workdir: Path) -> Outcome:
    for name in op.output_names:
        (workdir / name).unlink(missing_ok=True)
    argv = op.argv(workdir)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = sl.cli.main(argv)
        except Exception as exc:  # an escaped error is a failed op, not a crash
            code = -1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    outputs = None
    if code == 0:
        try:
            outputs = [(workdir / n).read_text(encoding="ascii") for n in op.output_names]
        except OSError as exc:
            err.write(f"output unreadable: {exc}")
    return Outcome(op, seconds, code, outputs, err.getvalue().strip())


class Verifier:
    """Checks an op's first outcome in full; later ones must repeat it exactly."""

    def __init__(self, sl):
        self.sl = sl
        self.first: dict[str, Outcome] = {}
        self.verdicts: dict[str, str] = {}
        self.accuracy: dict[str, dict] = {}

    def verify(self, outcome: Outcome) -> None:
        name = outcome.op.name
        first = self.first.setdefault(name, outcome)
        if first is outcome:
            self.verdicts[name] = self._check(outcome)
        elif (outcome.code, outcome.outputs) != (first.code, first.outputs):
            self.verdicts[name] = "wrong: differs from the op's first run"
        outcome.ok = self.verdicts[name] == "ok"
        outcome.wrong = self.verdicts[name].startswith("wrong")

    def _check(self, outcome: Outcome) -> str:
        if outcome.code != 0:
            return f"failed: exit {outcome.code}: {outcome.message}"
        if outcome.outputs is None:
            return f"wrong: {outcome.message}"
        try:
            self.accuracy[outcome.op.name] = checks.check(outcome.op, outcome.outputs, self.sl)
        except checks.CheckError as exc:
            return f"wrong: {exc}"
        return "ok"


def run_pass(sl, ops, workdir, speed=None, tracer=None) -> list:
    """One pass over ``ops``; with ``speed``, each op is bracketed by it."""
    outcomes = []
    before = speed.sample() if speed else None
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        outcome = execute(sl, op, workdir)
        if speed:
            after = speed.sample()
            outcome.scale = speed.nominal / ((before + after) / 2)
            before = after
        outcomes.append(outcome)
    return outcomes


def verified(verifier, outcomes) -> list:
    for outcome in outcomes:
        verifier.verify(outcome)
    return outcomes


def op_p50(outcomes) -> float:
    p50 = statistics.median(o.reported if o.ok else math.inf for o in outcomes)
    return p50 if math.isfinite(p50) else INF_STANDIN


def accuracy_metrics(workload_ops, probe, verifier) -> dict:
    produced = PRODUCES[workload_ops[0].command]
    out = {}
    for metric, (figure, unit, floor, missing) in ACCURACY.items():
        # A workload reports its own oracle ops; the figures its command does
        # not produce come from the warm-up pair.
        source = workload_ops if figure in produced else probe
        values = [verifier.accuracy[op.name][figure] for op in source
                  if op.role == "oracle" and figure in verifier.accuracy.get(op.name, {})]
        value = max(values) if values else missing
        out[metric] = (max(value, floor), unit)
    return out


def measure_setup(args) -> list:
    """(wall seconds, host-speed factor) of fresh processes that import
    slspec and run the warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    speed = HostSpeed(SETUP_REFERENCE_KIND)
    runs = []
    before = speed.sample()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
        after = speed.sample()
        runs.append((seconds, speed.nominal / ((before + after) / 2)))
        before = after
    return runs


def timed_run(sl, args, ops, workdir, verifier, speed):
    outcomes = []
    elapsed = 0.0
    while True:
        done = verified(verifier, run_pass(sl, ops, workdir, speed))
        outcomes += done
        pass_seconds = sum(o.seconds for o in done)
        elapsed += pass_seconds
        if elapsed + pass_seconds > args.seconds:
            return outcomes


def single_thread_pass(args) -> dict:
    """Traced pass in a child process whose BLAS runs one thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "single-thread",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", "1"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SINGLE_THREAD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"single-thread pass failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_pass(sl, ops, workdir, verifier, speed):
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = run_pass(sl, ops, workdir, speed, tracer)
    finally:
        tracer.uninstall()
    # Checked after the wrappers are gone, so no check call is traced.
    return tracer, verified(verifier, outcomes)


def traced_run(sl, args, ops, workdir, verifier, speed):
    untraced = verified(verifier, run_pass(sl, ops, workdir, speed))
    tracer, traced = traced_pass(sl, ops, workdir, verifier, speed)
    single = single_thread_pass(args)
    metrics = tracer.metrics(sl.glm.factorization_residual)
    # Host-speed normalized, like the end-to-end times; spans are raw.
    untraced_s = sum(o.reported for o in untraced)
    traced_s = sum(o.reported for o in traced)
    metrics.update({
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    metrics.update({k: tuple(v) for k, v in single["metrics"].items()})
    return untraced + traced, metrics, tracer, single["correct"]


def single_thread_role(sl, ops, workdir, verifier) -> dict:
    threads = blas_threads()
    if threads not in (1, None):
        raise BenchError(f"BLAS runs {threads} threads with OPENBLAS_NUM_THREADS=1")
    tracer, outcomes = traced_pass(sl, ops, workdir, verifier, None)
    layer = tracer.metrics(sl.glm.factorization_residual)
    ok = [o.seconds for o in outcomes if o.ok]
    return {
        "correct": not any(o.wrong for o in outcomes),
        "metrics": {
            "st1.pass_s": (sum(o.seconds for o in outcomes), "s"),
            "st1.ok_op_p50_s": (statistics.median(ok) if ok else 0.0, "s"),
            "st1.glm.solve_glm_s": layer["glm.solve_glm_s"],
            "st1.direct.eigenvalues_s": layer["direct.eigenvalues_s"],
        },
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up and single-thread child processes.
    p.add_argument("--role", choices=("main", "setup", "single-thread"),
                   default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slspec" / "__init__.py").is_file():
        print(f"perfbench: no slspec sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup_runs = []
        if args.role == "main" and not args.trace:
            # Before this process runs any BLAS work, so its threads sit idle.
            setup_runs = measure_setup(args)
        sl = import_slspec()
        workdir = WORK / f"{args.role}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            return run_role(sl, args, workdir, setup_runs)
        finally:
            shutil.rmtree(workdir)
            with contextlib.suppress(OSError):
                WORK.rmdir()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def run_role(sl, args, workdir, setup_runs) -> int:
    probe = workloads.probe_ops()
    write_inputs(probe, workdir)
    verifier = Verifier(sl)
    warm = verified(verifier, run_pass(sl, probe, workdir))
    if args.role == "setup":
        return 0
    ops = workloads.build(args.workload, args.seed)
    write_inputs(ops, workdir)
    if args.role == "single-thread":
        print(json.dumps(single_thread_role(sl, ops, workdir, verifier)))
        return 0
    speed = HostSpeed(REFERENCE_KIND[args.workload])

    host = host_record(args, ops)
    tracer = None
    if args.trace:
        outcomes, metrics, tracer, child_correct = traced_run(
            sl, args, ops, workdir, verifier, speed)
    else:
        outcomes = timed_run(sl, args, ops, workdir, verifier, speed)
        child_correct = True
        ok = sum(o.ok for o in outcomes)
        metrics = {
            "setup_s": (statistics.median(s * f for s, f in setup_runs), "s"),
            "ops_per_s": (ok / sum(o.reported for o in outcomes), "1/s"),
            "op_p50_s": (op_p50(outcomes), "s"),
            "ok_frac": (ok / len(outcomes), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics.update(accuracy_metrics(ops, probe, verifier))

    correct = child_correct and not any(o.wrong for o in warm + outcomes)
    failed = sum(not o.ok for o in outcomes)
    record = {
        "host": host,
        "setup_runs": [{"seconds": s, "scale": f} for s, f in setup_runs],
        "verdicts": verifier.verdicts,
        "outcomes": [{"op": o.op.name, "seconds": o.seconds, "scale": o.scale,
                      "code": o.code, "ok": o.ok} for o in outcomes],
        "metrics": metrics,
        "spans": tracer.span_records() if tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, verdict in verifier.verdicts.items():
        print(f"{name}: {verdict}")
    print("host: " + json.dumps({k: v for k, v in host.items() if k != "ops"}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
