"""Layered benchmark for the qhopf command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      # every workload in turn
    python3 bench/run.py --self-check            # one job of each kind

Run from anywhere inside a source checkout; the engine is taken from
``src/`` next to this directory.  Every job is one user command in a fresh
interpreter, run one at a time: ``python -m qhopf.cli ...`` with
``PYTHONPATH=src``, or one call to ``build_small_uqsl2`` followed by
``render_entry``.  Inputs are generated from the seed into a scratch
directory under ``.bench_work/``; the program only ever receives those
files.  Every job's output is checked.

A run repeats whole passes ("rounds") of the workload's job list while
the next round still fits in ``--seconds`` (at least one round).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import ``qhopf.cli`` and exit), ``wall_s``
(median over rounds of the summed job latencies), ``verify_p50_s``
(median ``verify --checks all --json`` latency on valid inputs) and
``peak_rss_mb`` (largest resident set of any job).  The other per-kind
figures are printed with their sample counts above the result line.

``--trace 1`` alternates untraced and traced runs of round 0 (so every
count repeats exactly for a seed) and prints per-layer totals per round:
``<module>.<function>_calls``, ``<module>.<function>_s`` (seconds in
outermost calls), counters, ``<module>.self_s`` (a layer's time not
covered by wrapped calls nested inside it) and ``tracing.overhead_ratio``
(traced over untraced round time).  See ``trace_child.py`` for what is
wrapped.  The merged spans of the last traced round are kept in
``.bench_work/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from inputs import RATIONAL_ENTRIES, InputFactory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "qhopf" / "data"
WORK = ROOT / ".bench_work"
TRACE_CHILD = HERE / "trace_child.py"

HARD_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 7
UQSL2_CENTER_DIM = 4       # (3p - 1)/2 at p = 3

BUILD_CODE = ("import sys\n"
              "from qhopf.uqsl2 import build_small_uqsl2\n"
              "from qhopf.structfile import render_entry\n"
              "sys.stdout.write(render_entry(build_small_uqsl2()))\n")
IMPORT_CODE = ("import qhopf.cli, qhopf.scalars as s\n"
               "print(s.QQ.__module__)\n")

END_TO_END = {"setup_s": "s", "wall_s": "s", "verify_p50_s": "s",
              "peak_rss_mb": "MB"}
KINDS = ("build", "verify", "verify_fail", "twist", "center")

_LAYER_COUNTS = (
    "scalars.mul_calls", "scalars.addsub_calls", "scalars.div_calls",
    "scalars.parse_scalar_calls",
    "graded.tensor_mul_calls", "graded.tensor_mul_terms",
    "graded.element_mul_calls", "graded.apply_maps_calls",
    "graded.permute_calls", "graded.embed_calls",
    "linalg.rref_calls", "linalg.rref_cells", "linalg.nullspace_calls",
    "linalg.solve_affine_calls", "twisting.invert_tensor_calls",
    "quasihopf.checks_run", "quasihopf.checks_failed",
    "casimir.u_operator_calls", "casimir.trace_forms_calls",
    "casimir.verify_twist_invariance_calls", "casimir.casimir_Cm_calls",
    "twisting.validate_twistor_calls", "twisting.twist_structure_calls",
    "invariants.center_calls", "invariants.invariant_subspace_calls",
    "invariants.is_central_calls", "uqsl2.build_small_uqsl2_calls",
)
# only times that are nonzero on every workload; the others appear as calls
_LAYER_TIMES = (
    "scalars.mul_s", "scalars.addsub_s", "scalars.div_s",
    "scalars.parse_scalar_s", "scalars.self_s",
    "graded.tensor_mul_s", "graded.element_mul_s", "graded.apply_maps_s",
    "graded.permute_s", "graded.embed_s", "graded.algebra_init_s",
    "graded.self_s",
    "linalg.rref_s", "linalg.nullspace_s", "linalg.self_s",
    "quasihopf.verify_quasi_bialgebra_s", "quasihopf.verify_antipode_axioms_s",
    "quasihopf.verify_quasitriangular_s", "quasihopf.verify_quasi_ybe_s",
    "quasihopf.self_s",
    "casimir.u_operator_s", "casimir.identity_suite_s", "casimir.self_s",
    "invariants.self_s",
    "structfile.parse_entry_s", "structfile.render_entry_s", "structfile.self_s",
    "cli.main_s",
    "jobs.latency_s",
)
PER_LAYER = {**{name: "count" for name in _LAYER_COUNTS},
             **{name: "s" for name in _LAYER_TIMES},
             "tracing.overhead_ratio": "ratio"}


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    kind: str
    argv: List[str]          # interpreter arguments: -m qhopf.cli ... or -c CODE
    key: str                 # jobs with one key get byte-identical stdout


@dataclass
class Result:
    job: Job
    latency: float
    rss_kb: int
    code: Optional[int]      # None when the job was killed at the deadline
    stdout: bytes
    stderr: bytes
    error: Optional[str] = None


def _cli(kind: str, *args: str) -> Job:
    return Job(kind, ["-m", "qhopf.cli", *args], " ".join(args))


class Runner:
    """Spawns jobs one at a time and measures each from spawn to reap."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.count = 0

    def spawn(self, argv: List[str], trace_out: Optional[Path] = None,
              job: Optional[Job] = None) -> Result:
        self.count += 1
        if trace_out is not None:
            argv = [str(TRACE_CHILD), str(trace_out), str(self.count)] + argv
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=self.workdir)
            code, rusage = self._reap(proc)
            latency = time.perf_counter() - t0
        return Result(job, latency, rusage.ru_maxrss, code,
                      out_path.read_bytes(), err_path.read_bytes())

    def _reap(self, proc):
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [],
                                        max(0.0, self.deadline - time.perf_counter()))
        finally:
            os.close(fd)
        killed = not ready
        if killed:
            proc.send_signal(signal.SIGKILL)
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if killed else proc.returncode), rusage

    def run(self, job: Job, trace_out: Optional[Path] = None) -> Result:
        result = self.spawn(job.argv, trace_out, job)
        result.error = check(result)
        return result


def check(r: Result) -> Optional[str]:
    """Why the job's output is wrong, or None."""
    if r.code is None:
        return "killed at the run deadline"
    if b"Traceback" in r.stderr:
        return "traceback on stderr"
    expected = 1 if r.job.kind == "verify_fail" else 0
    if r.code != expected:
        return f"exit code {r.code}, expected {expected}"
    if r.job.kind == "build":
        golden = (DATA / "small-uqsl2.qh").read_bytes()
        return None if r.stdout == golden else "build differs from the golden file"
    try:
        doc = json.loads(r.stdout)
    except ValueError:
        return "stdout is not JSON"
    if r.job.kind == "verify":
        return None if doc.get("passed") is True else "valid input failed"
    if r.job.kind == "verify_fail":
        failed = {c["id"] for rep in doc["reports"] for c in rep["checks"]
                  if not c["passed"]}
        if doc.get("passed") is not False or "counit-coassociator" not in failed:
            return "mutated coassociator not detected"
        return None
    if r.job.kind == "twist":
        ok = doc.get("verified") is True and doc["invariance"]["passed"] is True
        return None if ok else "twist not verified or not invariant"
    if r.job.kind == "center":
        dim = len(doc["even"]) + len(doc["odd"])
        return None if dim == UQSL2_CENTER_DIM else f"center has dimension {dim}"
    return f"unknown job kind {r.job.kind}"


# ---------------------------------------------------------------------------
# workloads


class Uqsl2:
    """The golden 27-dimensional small-uqsl2 file over cyclotomic(3), as is."""

    golden = str(DATA / "small-uqsl2.qh")

    def round(self, k: int) -> List[Job]:
        return [Job("build", ["-c", BUILD_CODE], "build"),
                _cli("verify", "verify", self.golden, "--checks", "all", "--json"),
                _cli("center", "center", self.golden, "--json")]


class Sweep:
    """The five rational entries; per round and entry: a twist by a freshly
    seeded twistor, a verify of the seeded file and a verify of a mutated
    copy.  ``qdeformed`` sets the field to rational functions in q."""

    def __init__(self, workdir: Path, seed: int, qdeformed: bool):
        self.factory = InputFactory(DATA, workdir, seed, qdeformed)
        self.valid = {e: str(self.factory.with_twistor(e, "rand", "valid"))
                      for e in RATIONAL_ENTRIES}
        self.mutated = {e: str(self.factory.mutated(e)) for e in RATIONAL_ENTRIES}

    def round(self, k: int) -> List[Job]:
        jobs = []
        for e in RATIONAL_ENTRIES:
            name = f"rand{k}"
            path = str(self.factory.with_twistor(e, name, k))
            jobs.append(_cli("twist", "twist", path, "--twistor", name,
                             "--verify-invariance", "--json"))
            jobs.append(_cli("verify", "verify", self.valid[e],
                             "--checks", "all", "--json"))
            jobs.append(_cli("verify_fail", "verify", self.mutated[e],
                             "--checks", "all", "--json"))
        return jobs


WORKLOADS = {
    "uqsl2": lambda workdir, seed: Uqsl2(),
    "twist-sweep": lambda workdir, seed: Sweep(workdir, seed, qdeformed=False),
    "qdeformed": lambda workdir, seed: Sweep(workdir, seed, qdeformed=True),
}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Run:
    workload: str
    results: List[Result] = field(default_factory=list)
    rounds: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    context: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> List[Result]:
        return [r for r in self.results if r.error is not None]


def reference_loop() -> float:
    """A fixed pure-Python Fraction loop; its time tracks machine drift."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1, 40001):
        a = Fraction(i, i + 1)
        b = Fraction(i + 2, 2 * i + 3)
        total += (a * b - a / b + a).numerator % 7
    return time.perf_counter() - t0


def measure_setup(runner: Runner, run: Run, samples: int) -> None:
    warm = runner.spawn(["-c", IMPORT_CODE])   # also writes the bytecode cache
    if warm.code != 0:
        raise SystemExit(f"error: cannot import qhopf.cli from {SRC}:\n"
                         + warm.stderr.decode(errors="replace"))
    run.context["backend"] = warm.stdout.decode().strip()
    run.setup = [runner.spawn(["-c", IMPORT_CODE]).latency for _ in range(samples)]


def _round(runner: Runner, run: Run, jobs: List[Job],
           trace_dir: Optional[Path] = None) -> float:
    wall = 0.0
    for i, job in enumerate(jobs):
        out = None if trace_dir is None else trace_dir / f"{i}.json"
        r = runner.run(job, out)
        run.results.append(r)
        wall += r.latency
        if r.code is None:
            break
    return wall


def _one_per_kind(jobs: List[Job]) -> List[Job]:
    kinds = set()
    return [j for j in jobs if not (j.kind in kinds or kinds.add(j.kind))]


def measure(runner: Runner, run: Run, workload, seconds: float,
            quick: bool) -> None:
    start = time.perf_counter()
    k = 0
    while True:
        jobs = workload.round(k)
        if quick:
            jobs = _one_per_kind(jobs)
        run.rounds.append(_round(runner, run, jobs))
        k += 1
        elapsed = time.perf_counter() - start
        if (quick or elapsed + run.rounds[-1] > seconds
                or time.perf_counter() + run.rounds[-1] > runner.deadline):
            break


def measure_traced(runner: Runner, run: Run, workload, seconds: float,
                   quick: bool) -> None:
    jobs = workload.round(0)
    if quick:
        jobs = _one_per_kind(jobs)
    trace_dir = runner.workdir / "trace"
    start = time.perf_counter()
    plain, traced, per_round = [], [], []
    while True:
        plain.append(_round(runner, run, jobs))
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        traced.append(_round(runner, run, jobs, trace_dir))
        docs = []
        for i in range(len(jobs)):
            path = trace_dir / f"{i}.json"
            if path.exists():
                docs.append(json.loads(path.read_text()))
        per_round.append(layer_totals(docs, traced[-1]))
        elapsed = time.perf_counter() - start
        pair = plain[-1] + traced[-1]
        if (quick or elapsed + pair > seconds
                or time.perf_counter() + pair > runner.deadline):
            break
    run.rounds = traced
    names = set(PER_LAYER).union(*per_round) - {"tracing.overhead_ratio"}
    run.layers = {name: statistics.median(r.get(name, 0) for r in per_round)
                  for name in names}
    run.layers["tracing.overhead_ratio"] = (statistics.median(traced)
                                            / statistics.median(plain))
    WORK.mkdir(exist_ok=True)
    spans = [{"job": d["job"], "spans": d["spans"]} for d in docs]
    (WORK / f"trace-{run.workload}.json").write_text(json.dumps(spans))


def layer_totals(docs: List[dict], latency: float) -> Dict[str, float]:
    """Per-layer totals of one traced round from the children's outputs."""
    out: Dict[str, float] = {"jobs.latency_s": latency}
    for doc in docs:
        for metric, (calls, seconds, self_s) in doc["stats"].items():
            module = metric.split(".")[0]
            out[metric + "_calls"] = out.get(metric + "_calls", 0) + calls
            out[metric + "_s"] = out.get(metric + "_s", 0.0) + seconds
            out[module + ".self_s"] = out.get(module + ".self_s", 0.0) + self_s
        for name, value in doc["counts"].items():
            out[name] = out.get(name, 0) + value
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Run:
    run = Run(name)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(workdir, time.perf_counter() + HARD_LIMIT_S)
        run.context["ref_loop_start_s"] = reference_loop()
        measure_setup(runner, run, 1 if quick else SETUP_SAMPLES)
        workload = WORKLOADS[name](workdir, seed)
        if trace:
            measure_traced(runner, run, workload, seconds, quick)
        else:
            measure(runner, run, workload, seconds, quick)
        run.context["ref_loop_end_s"] = reference_loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests: Dict[str, str] = {}
    for r in run.results:
        digest = hashlib.sha256(r.stdout).hexdigest()
        if digests.setdefault(r.job.key, digest) != digest:
            r.error = r.error or "stdout differs from an earlier run of this input"
    return run


# ---------------------------------------------------------------------------
# reporting


def end_to_end(run: Run) -> Dict[str, float]:
    verify = [r.latency for r in run.results if r.job.kind == "verify"]
    if not verify:
        raise SystemExit("error: the run was cut before any verify job ended")
    return {"setup_s": statistics.median(run.setup),
            "wall_s": statistics.median(run.rounds),
            "verify_p50_s": statistics.median(verify),
            "peak_rss_mb": max(r.rss_kb for r in run.results) / 1024}


def report_lines(run: Run, seed: int, trace: bool) -> List[str]:
    ctx = run.context
    n = len(run.results)
    lines = [
        f"machine: python={platform.python_version()} backend={ctx['backend']} "
        f"nproc={os.cpu_count()} ref_loop_start_s={ctx['ref_loop_start_s']:.4f} "
        f"ref_loop_end_s={ctx['ref_loop_end_s']:.4f}",
        f"workload={run.workload} seed={seed} trace={int(trace)} "
        f"rounds={len(run.rounds)} jobs={n} failed={len(run.failed)}",
    ]
    for r in run.failed:
        lines.append(f"  FAILED {r.job.kind} {r.job.key}: {r.error}")
    if trace:
        rounds = len(run.rounds)
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:42s} {run.layers[name]:14.6g} {unit:6s} n={rounds}")
        for name in sorted(set(run.layers) - set(PER_LAYER)):
            if name.endswith("_s"):
                lines.append(f"  ({name:40s} {run.layers[name]:14.6g} s      "
                             f"n={rounds}, not in BENCHMARK.json)")
        return lines
    e2e = end_to_end(run)
    counts = {"setup_s": len(run.setup), "wall_s": len(run.rounds),
              "verify_p50_s": sum(r.job.kind == "verify" for r in run.results),
              "peak_rss_mb": n}
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:20s} {e2e[name]:12.4f} {unit:5s} n={counts[name]}")
    for kind in KINDS:
        samples = [r.latency for r in run.results if r.job.kind == kind]
        if samples and kind != "verify":
            lines.append(f"  {kind + '_p50_s':20s} {statistics.median(samples):12.4f} "
                         f"s     n={len(samples)}")
    latencies = sorted(r.latency for r in run.results)
    p90 = latencies[min(n - 1, int(0.9 * n))]
    beyond = sum(x > p90 for x in latencies)
    if beyond >= 10:
        lines.append(f"  {'job_p90_s':20s} {p90:12.4f} s     n={n}")
    lines.append(f"  {'failed_ratio':20s} {len(run.failed) / n:12.4f} ratio n={n}")
    return lines


def result_line(run: Run, trace: bool) -> dict:
    values = run.layers if trace else end_to_end(run)
    units = PER_LAYER if trace else END_TO_END
    return {"correct": not run.failed, "attempted": len(run.results),
            "failed": len(run.failed),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def self_check() -> int:
    """One job of each kind per workload, untraced and traced; asserts that
    every declared metric is printed with its unit and matches BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []
    if want_e2e != END_TO_END:
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    if want_layer != PER_LAYER:
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (False, True):
            run = run_workload(name, 1, 0, trace, quick=True)
            lines = report_lines(run, 1, trace)
            print("\n".join(lines))
            for metric, unit in (PER_LAYER if trace else END_TO_END).items():
                if not any(f" {metric} " in line and f" {unit} " in line
                           for line in lines):
                    problems.append(f"{name}: {metric} [{unit}] not printed")
            if run.failed:
                problems.append(f"{name}: {len(run.failed)} job(s) failed")
    for p in problems:
        print("SELF-CHECK:", p)
    print("SELF-CHECK:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qhopf" / "cli.py").is_file():
        print(f"error: no qhopf sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, trace)
        print("\n".join(report_lines(run, args.seed, trace)), flush=True)
        runs.append(run)
    if len(runs) == 1:
        print(json.dumps(result_line(runs[0], trace)))
    else:
        merged = {"correct": all(not r.failed for r in runs),
                  "attempted": sum(len(r.results) for r in runs),
                  "failed": sum(len(r.failed) for r in runs), "metrics": {}}
        for r in runs:
            for k, v in result_line(r, trace)["metrics"].items():
                merged["metrics"][f"{r.workload}.{k}"] = v
        print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
