"""Command-line front end.

    qhopf verify  FILE [--checks LIST] [--json]
    qhopf casimir FILE --kind K [--power M] [--rep NAME] [--source SEL] [--json]
    qhopf twist   FILE --twistor NAME [--out PATH] [--verify-invariance] [--json]
    qhopf center  FILE [--json]

Exit status: 0 when every requested check passes, 1 on a mathematical
failure (an axiom or equality does not hold), 2 on input errors (bad
file, bad scalar, missing data).  JSON output is deterministic: the same
input always produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .casimir import (
    build_C1,
    build_C2,
    casimir_Cm,
    identity_suite,
    quadratic_invariants,
    rtr_power,
    u_inverse,
    u_operator,
    verify_twist_invariance,
)
from .errors import PostconditionError, QhopfError
from .invariants import center as center_of
from .invariants import invariant_subspace, pseudo_invariant_subspace
from .quasihopf import (
    require_verified,
    verify_antipode_axioms,
    verify_quasi_bialgebra,
    verify_quasi_ybe,
    verify_quasitriangular,
)
from .scalars import MAX_EXPONENT
from .structfile import CatalogEntry, entry_to_dict, load_entry, render_entry, save_entry
from .twisting import identity_twistor, twist_structure

CHECK_NAMES = ("axioms", "qtri", "qybe", "identities", "all")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def cmd_verify(args) -> int:
    requested = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
    if not requested:
        raise QhopfError(f"--checks: name at least one of {', '.join(CHECK_NAMES)}")
    for c in requested:
        if c not in CHECK_NAMES:
            raise QhopfError(f"unknown check {c!r}; valid: {', '.join(CHECK_NAMES)}")
    entry = load_entry(args.file)
    H = entry.structure
    if "all" in requested:
        requested = ["axioms", "identities"] + \
            (["qtri", "qybe"] if H.r is not None else [])
    runs = {"axioms": (verify_quasi_bialgebra, verify_antipode_axioms),
            "qtri": (verify_quasitriangular,), "qybe": (verify_quasi_ybe,),
            "identities": (identity_suite,)}
    reports = [verify(H) for c in requested for verify in runs[c]]
    passed = all(r.passed for r in reports)
    if args.json:
        print(_dump({"file": args.file, "name": entry.name, "passed": passed,
                     "reports": [r.as_dict() for r in reports]}))
    else:
        for r in reports:
            print(r.summary())
        print("RESULT:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


def _pick_source(H, selector: str):
    if selector == "beta":
        return H.beta
    if selector == "alpha":
        return H.alpha
    for prefix, kind, space in (("inv:", "invariant", invariant_subspace),
                                ("pinv:", "pseudo-invariant", pseudo_invariant_subspace)):
        if selector.startswith(prefix):
            sub, idx = space(H).even, selector[len(prefix):]
            if not idx.isdecimal() or int(idx) >= len(sub):
                raise QhopfError(f"source {selector!r}: N must be an index below "
                                 f"{len(sub)}, the number of even {kind} vectors")
            return sub[int(idx)]
    raise QhopfError(
        f"unknown source {selector!r}; use beta, alpha, inv:N or pinv:N")


def _pick_rep(entry: CatalogEntry, name: Optional[str]):
    if name is not None:
        return entry.representation(name)
    if "regular" in entry.representations:
        return entry.representations["regular"]
    if not entry.representations:
        raise QhopfError("the file carries no representations")
    return entry.representations[sorted(entry.representations)[0]]


def cmd_casimir(args) -> int:
    if abs(args.power) > MAX_EXPONENT:  # each doubling of m costs one product of R^T R
        raise QhopfError(f"--power: |m| must be at most {MAX_EXPONENT}")
    entry = load_entry(args.file)
    H = require_verified(entry.structure, args.file, PostconditionError)
    out: Dict[str, object] = {"file": args.file, "kind": args.kind}
    if args.kind == "u":
        u = u_operator(H)
        out["element"] = u.to_dict()
        out["checks"] = {"conjugates-antipode-squared": True,
                         "fixed-by-antipode-squared": True}
        if H.antipode_inv is not None:
            out["inverse"] = u_inverse(H).to_dict()
            out["checks"]["two-sided-inverse"] = True
    elif args.kind in ("c1", "c2"):
        if args.source is None:
            raise QhopfError("--source is required for c1/c2 (beta, alpha, inv:N, pinv:N)")
        src = _pick_source(H, args.source)
        element = build_C1(H, src) if args.kind == "c1" else build_C2(H, src)
        out["source"] = src.to_dict()
        out["element"] = element.to_dict()
        out["checks"] = {"central": True, "formulas-agree": True,
                         "recovers-source": True}
    elif args.kind == "quadratic":
        omega = rtr_power(H, args.power)
        c1, c2 = quadratic_invariants(H, omega)
        out["power"] = args.power
        out["c1"] = c1.to_dict()
        out["c2"] = c2.to_dict()
        out["C1"] = build_C1(H, c1).to_dict()
        out["C2"] = build_C2(H, c2).to_dict()
        out["checks"] = {"invariant": True, "pseudo-invariant": True,
                         "central": True}
    elif args.kind in ("cm", "cmbar"):
        rep = _pick_rep(entry, args.rep)
        cm, cmbar = casimir_Cm(H, rep, args.power)
        element = cm if args.kind == "cm" else cmbar
        out["power"] = args.power
        out["rep"] = rep.name
        out["element"] = element.to_dict()
        out["checks"] = {"central": True}
    else:  # unreachable through argparse
        raise QhopfError(f"unknown kind {args.kind!r}")
    if args.json:
        print(_dump(out))
    else:
        print(f"kind: {out['kind']}")
        for key in sorted(out):
            if key in ("file", "kind"):
                continue
            print(f"{key}: {out[key]}")
    return 0


def cmd_twist(args) -> int:
    entry = load_entry(args.file)
    H = entry.structure
    F = entry.twistor(args.twistor)
    result: Dict[str, object] = {"file": args.file, "twistor": args.twistor,
                                 "verified": True}
    try:
        twisted = twist_structure(H, F)
    except PostconditionError:  # a twist fails only where its input does: name the input
        require_verified(H, args.file, PostconditionError)
        raise
    status = 0
    if args.verify_invariance:  # reuses the memoised twisted structure
        report = verify_twist_invariance(H, F, reps=entry.representations)
        result["invariance"] = report.as_dict()
        if not report.passed:
            status = 1
    twisted = twisted.with_data(name=f"{entry.name}-{args.twistor}")
    new_entry = CatalogEntry(
        twisted.name, twisted, {"identity": identity_twistor(twisted)},
        dict(entry.representations),
        notes=f"{entry.name} twisted by {args.twistor}")
    if args.out:
        save_entry(new_entry, args.out)
        result["out"] = args.out
    else:
        result["structure"] = entry_to_dict(new_entry)
    if args.json:
        print(_dump(result))
    else:
        if args.out:
            print(f"twisted structure written to {args.out}")
        else:
            print(render_entry(new_entry), end="")
        if args.verify_invariance:
            print(report.summary())
    return status


def cmd_center(args) -> int:
    entry = load_entry(args.file)
    z = center_of(entry.structure)
    data = {"file": args.file, "name": entry.name,
            "even": [v.to_dict() for v in z.even],
            "odd": [v.to_dict() for v in z.odd]}
    if args.json:
        print(_dump(data))
    else:
        print(f"center of {entry.name}: dimension {z.dim}")
        for v in z.even:
            print("  even:", v.to_dict())
        for v in z.odd:
            print("  odd: ", v.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhopf",
        description="exact verification and invariant construction for "
                    "Z2-graded quasi-Hopf algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run axiom checks on a structure file")
    p.add_argument("file")
    p.add_argument("--checks", default="all",
                   help="comma list of: axioms, qtri, qybe, identities, all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("casimir", help="construct central elements")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=["c1", "c2", "quadratic", "u", "cm", "cmbar"])
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--rep", default=None)
    p.add_argument("--source", default=None,
                   help="beta, alpha, inv:N or pinv:N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_casimir)

    p = sub.add_parser("twist", help="apply a named twistor")
    p.add_argument("file")
    p.add_argument("--twistor", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verify-invariance", action="store_true",
                   dest="verify_invariance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("center", help="print a basis of the center")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_center)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PostconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (QhopfError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
