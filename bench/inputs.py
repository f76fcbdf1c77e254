"""Seeded `.qh` inputs for the benchmark workloads.

Every generated file is a golden catalog file with one twistor added and,
for the ``qdeformed`` workload, the field switched to rational functions
in q (the data is unchanged, since Q is contained in Q(q)).  Each twistor
family has a closed-form inverse, so the engine never has to solve for
one, and the counit property holds because the counit vanishes on p-,
x, gx and theta:

* ``z2-*``: F = 1(x)1 + c.P with P = p-(x)p-, p- = (1-g)/2 and c not in
  {0, -1}; then F^-1 = 1(x)1 - c/(1+c).P.
* Sweedler entries: F = 1(x)1 + N with N = c.a(x)b for a seeded pair
  a, b in {x, gx}; N^2 = 0, so F^-1 = 1(x)1 - N.  One term rather than
  all four keeps a Q(q) twist at 2-5 s instead of 8-15 s.
* ``grassmann-theta``: F = 1(x)1 + c.th(x)th, inverse 1(x)1 - c.th(x)th.

A mutated file adds a nonzero c to the 1(x)1(x)1 coefficient of phi, which
breaks the counit law for the coassociator.

Coefficients have a fixed shape (numerator and denominator sizes over Q,
exact degrees 2 over 1 over Q(q)), so the cost of a job varies little
from seed to seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

RATIONAL_ENTRIES = ("z2-group", "z2-cocycle", "sweedler-h4",
                    "sweedler-twisted", "grassmann-theta")
Q_OF_Q = {"kind": "rational-functions", "indeterminate": "q"}

Poly = Tuple[Fraction, ...]  # coefficients, lowest degree first


class RatFun:
    """An unreduced quotient of polynomials in q with rational coefficients.

    Only the operations the twistor formulas need; the engine's parser
    brings every coefficient to canonical form when it reads the file.
    """

    def __init__(self, num: Poly, den: Poly = (Fraction(1),)):
        self.num = _trim(num)
        self.den = _trim(den)

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun((Fraction(c),))

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun(_padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
                      _pmul(self.den, other.den))

    def __neg__(self) -> "RatFun":
        return RatFun(tuple(-c for c in self.num), self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return RatFun(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def inv(self) -> "RatFun":
        return RatFun(self.den, self.num)

    def is_zero(self) -> bool:
        return not self.num

    def render(self) -> str:
        if len(self.num) <= 1 and len(self.den) == 1:
            c = (self.num[0] if self.num else Fraction(0)) / self.den[0]
            return str(c)
        return f"({_render_poly(self.num)})/({_render_poly(self.den)})"


def _trim(p) -> Poly:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _render_poly(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = head + ("q" if e == 1 else f"q^{e}")
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts)


def random_coefficient(rng: random.Random, qdeformed: bool) -> RatFun:
    """A nonzero coefficient: a/b over Q, or (deg 2)/(deg 1) over Q(q)."""
    def nonzero(lo, hi):
        return rng.choice((-1, 1)) * rng.randint(lo, hi)
    if not qdeformed:
        return RatFun((Fraction(nonzero(1, 9), rng.randint(2, 9)),))
    num = (nonzero(1, 9), nonzero(1, 9), nonzero(1, 9))
    den = (nonzero(1, 9), rng.randint(1, 9))
    return RatFun(num, den)


def _twistor_terms(entry: str, rng: random.Random, qdeformed: bool
                   ) -> Tuple[Dict[Tuple[str, str], RatFun], Dict[Tuple[str, str], RatFun]]:
    one = RatFun.const(1)
    if entry.startswith("z2-"):
        c = random_coefficient(rng, qdeformed)
        while (c + one).is_zero():
            c = random_coefficient(rng, qdeformed)
        d = -(c * (c + one).inv())
        quarter = RatFun.const(Fraction(1, 4))
        sign = {("1", "1"): 1, ("1", "g"): -1, ("g", "1"): -1, ("g", "g"): 1}

        def with_p(k: RatFun):
            return {key: (one if key == ("1", "1") else RatFun.const(0))
                    + (k * quarter * RatFun.const(s)) for key, s in sign.items()}
        return with_p(c), with_p(d)
    if entry.startswith("sweedler-"):
        pair = (rng.choice(("x", "gx")), rng.choice(("x", "gx")))
        c = random_coefficient(rng, qdeformed)
        return {("1", "1"): one, pair: c}, {("1", "1"): one, pair: -c}
    if entry == "grassmann-theta":
        c = random_coefficient(rng, qdeformed)
        return {("1", "1"): one, ("th", "th"): c}, {("1", "1"): one, ("th", "th"): -c}
    raise ValueError(f"no twistor family for {entry!r}")


def _rows(terms: Dict[Tuple[str, str], RatFun]) -> List[list]:
    return [[a, b, c.render()] for (a, b), c in sorted(terms.items())
            if not c.is_zero()]


class InputFactory:
    """Writes the seeded input files of one workload run into ``workdir``."""

    def __init__(self, data_dir: Path, workdir: Path, seed: int, qdeformed: bool):
        self.data_dir = data_dir
        self.workdir = workdir
        self.seed = seed
        self.qdeformed = qdeformed
        self.tag = "qq" if qdeformed else "q"

    def _rng(self, *key) -> random.Random:
        return random.Random(f"{self.seed}:{self.tag}:" + ":".join(map(str, key)))

    def _doc(self, entry: str) -> dict:
        with open(self.data_dir / f"{entry}.qh", encoding="utf-8") as fh:
            doc = json.load(fh)
        if self.qdeformed:
            doc["field"] = dict(Q_OF_Q)
        return doc

    def _write(self, doc: dict, name: str) -> Path:
        path = self.workdir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return path

    def with_twistor(self, entry: str, twistor: str, *key) -> Path:
        """The entry plus one seeded twistor named ``twistor``."""
        doc = self._doc(entry)
        f, f_inv = _twistor_terms(entry, self._rng(entry, *key), self.qdeformed)
        doc["twistors"][twistor] = {"f": _rows(f), "f_inv": _rows(f_inv)}
        return self._write(doc, f"{entry}.{self.tag}.{twistor}.qh")

    def mutated(self, entry: str) -> Path:
        """The entry with a seeded nonzero c added to phi's 1(x)1(x)1 term."""
        doc = self._doc(entry)
        c = random_coefficient(self._rng(entry, "mutation"), self.qdeformed)
        row = next(r for r in doc["phi"] if r[:3] == ["1", "1", "1"])
        row[3] = (RatFun.const(Fraction(row[3])) + c).render()
        return self._write(doc, f"{entry}.{self.tag}.mutated.qh")
