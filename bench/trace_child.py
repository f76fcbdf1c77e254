"""Run one benchmark job with the public functions of qhopf wrapped.

    python3 bench/trace_child.py OUT JOB -m qhopf.cli ARG...
    python3 bench/trace_child.py OUT JOB -c CODE

The command after JOB is the one the untraced run gives the interpreter.
Before running it, every function in ``TRACED`` is wrapped: methods on
their class, functions in every qhopf module that bound the name at
import time.  When the command ends, OUT receives one JSON object:

* ``stats``: per metric, [calls, seconds, self seconds].  Seconds count
  outermost calls only, so recursion is not counted twice; self seconds
  are a call's duration minus the time covered by wrapped calls nested
  inside it.
* ``counts``: operation counters (tensor terms, matrix cells, checks).
* ``spans``: [metric, start, end, parent] for every call outside the hot
  scalar and product kernels, whose calls are only aggregated; parent is
  the index of the enclosing span, or -1.

``PYTHONPATH`` must point at the source tree, as for the untraced job.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

QHOPF_MODULES = ("scalars", "graded", "linalg", "quasihopf", "twisting",
                 "representations", "invariants", "casimir", "catalog",
                 "uqsl2", "structfile", "cli")

# (metric, module, attribute path); a metric may cover several attributes
TRACED = (
    ("scalars.mul", "scalars", "Scalar.__mul__"),
    ("scalars.mul", "scalars", "Scalar.__rmul__"),
    ("scalars.addsub", "scalars", "Scalar.__add__"),
    ("scalars.addsub", "scalars", "Scalar.__radd__"),
    ("scalars.addsub", "scalars", "Scalar.__sub__"),
    ("scalars.addsub", "scalars", "Scalar.__rsub__"),
    ("scalars.div", "scalars", "Scalar.__truediv__"),
    ("scalars.div", "scalars", "Scalar.__rtruediv__"),
    ("scalars.div", "scalars", "Scalar.inv"),
    ("scalars.parse_scalar", "scalars", "parse_scalar"),
    ("graded.tensor_mul", "graded", "TensorElement.__mul__"),
    ("graded.element_mul", "graded", "AlgebraElement.__mul__"),
    ("graded.apply_maps", "graded", "TensorElement.apply_maps"),
    ("graded.permute", "graded", "TensorElement.permute"),
    ("graded.embed", "graded", "TensorElement.embed"),
    ("graded.algebra_init", "graded", "GradedAlgebra.__init__"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve_affine", "linalg", "solve_affine"),
    ("twisting.invert_tensor", "twisting", "invert_tensor"),
    ("quasihopf.verify_quasi_bialgebra", "quasihopf", "verify_quasi_bialgebra"),
    ("quasihopf.verify_antipode_axioms", "quasihopf", "verify_antipode_axioms"),
    ("quasihopf.verify_quasitriangular", "quasihopf", "verify_quasitriangular"),
    ("quasihopf.verify_quasi_ybe", "quasihopf", "verify_quasi_ybe"),
    ("casimir.u_operator", "casimir", "u_operator"),
    ("casimir.trace_forms", "casimir", "trace_forms"),
    ("casimir.identity_suite", "casimir", "identity_suite"),
    ("casimir.verify_twist_invariance", "casimir", "verify_twist_invariance"),
    ("casimir.casimir_Cm", "casimir", "casimir_Cm"),
    ("twisting.validate_twistor", "twisting", "validate_twistor"),
    ("twisting.twist_structure", "twisting", "twist_structure"),
    ("invariants.center", "invariants", "center"),
    ("invariants.invariant_subspace", "invariants", "invariant_subspace"),
    ("invariants.is_central", "invariants", "is_central"),
    ("structfile.parse_entry", "structfile", "parse_entry"),
    ("structfile.render_entry", "structfile", "render_entry"),
    ("uqsl2.build_small_uqsl2", "uqsl2", "build_small_uqsl2"),
    ("cli.main", "cli", "main"),
)

# called up to millions of times per job: aggregated, never kept as spans
HOT = ("scalars.", "graded.tensor_mul", "graded.element_mul")


def _tensor_terms(counts, args):
    other = args[1] if len(args) > 1 else None
    if hasattr(other, "coeffs"):
        counts["graded.tensor_mul_terms"] += len(args[0].coeffs) * len(other.coeffs)


def _rref_cells(counts, args):
    m = args[0]
    counts["linalg.rref_cells"] += len(m) * (len(m[0]) if m else 0)


def _checks(counts, report):
    counts["quasihopf.checks_run"] += len(report.checks)
    counts["quasihopf.checks_failed"] += len(report.failures())


BEFORE = {"graded.tensor_mul": _tensor_terms, "linalg.rref": _rref_cells}
AFTER = {metric: _checks for metric, module, _ in TRACED if module == "quasihopf"}


class Tracer:
    """Wraps callables and accumulates their calls, seconds and spans."""

    def __init__(self):
        self.stats = {}   # metric -> [calls, seconds, self seconds, depth]
        self.counts = defaultdict(int)
        self.spans = []
        self.stack = []   # [child seconds, span index for children]

    def wrap(self, metric, fn):
        stats = self.stats.setdefault(metric, [0, 0.0, 0.0, 0])
        stack, spans, counts = self.stack, self.spans, self.counts
        hot = metric.startswith(HOT)
        before, after = BEFORE.get(metric), AFTER.get(metric)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args)
            parent = stack[-1][1] if stack else -1
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append([metric, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            stats[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                seconds = t1 - t0
                if stack:
                    stack[-1][0] += seconds
                stats[0] += 1
                stats[2] += seconds - frame[0]
                stats[3] -= 1
                if stats[3] == 0:
                    stats[1] += seconds
                if not hot:
                    spans[index][1] = t0
                    spans[index][2] = t1
            if after is not None:
                after(counts, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        modules = [importlib.import_module(f"qhopf.{name}") for name in QHOPF_MODULES]
        modules.append(importlib.import_module("qhopf"))
        for metric, module, path in TRACED:
            owner = importlib.import_module(f"qhopf.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(metric, cls.__dict__[attr]))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(metric, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def dump(self, path, job):
        doc = {"job": job,
               "stats": {m: s[:3] for m, s in self.stats.items() if s[0]},
               "counts": dict(self.counts),
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv):
    out, job, flag, *rest = argv
    tracer = Tracer()
    tracer.install()
    try:
        if flag == "-m" and rest[0] == "qhopf.cli":
            cli = importlib.import_module("qhopf.cli")
            sys.argv = ["qhopf"] + rest[1:]
            sys.exit(cli.main(rest[1:]))
        elif flag == "-c":
            sys.argv = ["-c"]
            exec(compile(rest[0], "<string>", "exec"), {"__name__": "__main__"})
        else:
            raise SystemExit(f"trace_child: cannot run {flag} {rest[:1]}")
    finally:
        tracer.dump(out, job)


if __name__ == "__main__":
    main(sys.argv[1:])
