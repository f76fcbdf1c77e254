"""Z2-graded finite-dimensional algebra substrate.

A :class:`GradedAlgebra` is a basis with parities plus sparse structure
constants, validated at construction (associativity, unit law, parity
compatibility).  Elements and tensors are sparse dictionaries of exact
scalars; every tensor operation carries the Koszul signs implied by the
graded tensor product rule

    (a (x) b)(a' (x) b') = (-1)^{[b][a']} (aa' (x) bb') ,

extended to arbitrary ranks.  Tensor legs may live over different graded
algebras; this is how matrix-valued legs (a representation applied to one
leg) are supported without a second sign calculus.

Coefficients are ``Scalar`` objects.  An algebra's one product table maps
(i, j) to the payload terms ((k, c), ...) of e_i e_j, read a row at a time
(``row(i)``); ``mul_basis`` wraps an entry into ``Scalar`` objects for other
callers.  The kernels compute on raw payloads with the field's payload
operations and generate terms (key, payload); ``_collect`` is the one place
that sums them per key, drops the zero sums and wraps each other sum into a
``Scalar`` once.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    BasisMismatchError,
    InvalidPermutationError,
    OddMapError,
    RankMismatchError,
    StructureValidationError,
)
from .linalg import eliminate
from .report import AxiomCheck
from .scalars import FieldDescriptor, Scalar

Key = Tuple[int, ...]
Row = Tuple[Tuple[int, tuple], ...]  # the terms (k, payload) of one product e_i e_j


def _clean(coeffs: Mapping) -> dict:
    return {k: v for k, v in coeffs.items() if not v.is_zero()}


def _sum(add: Callable, terms) -> dict:
    """The payload terms (key, value) summed per key with the field's add."""
    acc = {}
    for key, v in terms:
        s = acc.get(key)
        acc[key] = v if s is None else add(s, v)
    return acc


def _collect(field: FieldDescriptor, terms) -> dict:
    """Sum payload terms (key, value) per key and wrap the nonzero sums."""
    is_zero = field.ops.is_zero
    return {k: Scalar(field, v) for k, v in _sum(field.ops.add, terms).items() if not is_zero(v)}


def _factor(c: Scalar) -> str:
    """c as printed before "*": a sum of terms in parentheses, so that the
    printed element reads back (a Q(q) quotient prints as (...)/(...))."""
    s = str(c)
    return f"({s})" if not s.startswith("(") and (" + " in s or " - " in s) else s


def _expand(mul: Callable, coeff, factors: Sequence[Mapping[int, Scalar]]) -> list:
    """The payload terms (key, value) of coeff times the tensor product of
    the factors, each a dict from basis index to Scalar."""
    terms = [((), coeff)]
    for f in factors:
        terms = [(key + (k,), mul(c, e.value)) for key, c in terms for k, e in f.items()]
    return terms


# ---------------------------------------------------------------------------
# bases and structure constants


class GradedBasis:
    """Ordered basis labels with parities in {0,1}; the unit is a basis element."""

    def __init__(self, labels: Tuple[str, ...], parity: Tuple[int, ...], unit_index: int):
        if len(set(labels)) != len(labels):
            raise StructureValidationError("basis labels must be distinct")
        if len(labels) != len(parity):
            raise StructureValidationError("labels and parities differ in length")
        if any(p not in (0, 1) for p in parity):
            raise StructureValidationError("parities must be 0 or 1")
        if not 0 <= unit_index < len(labels):
            raise StructureValidationError("unit index out of range")
        if parity[unit_index] != 0:
            raise StructureValidationError("the unit must be even")
        self.labels, self.parity, self.unit_index = labels, parity, unit_index


class BaseAlgebra:
    """Shared interface for graded algebras used as tensor legs."""

    field: FieldDescriptor
    labels: Tuple[str, ...]
    parity: Tuple[int, ...]
    unit_coeffs: Dict[int, Scalar]
    _generators: Optional[Tuple[int, ...]] = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def generators(self) -> Tuple[int, ...]:
        """Basis indices of a generating set G, computed once: walking the
        basis in order, e_i joins G unless it lies in the span of the
        right-nested words g1 (g2 (... (gk 1))) over G.  The span is kept as
        echelon payload rows (``linalg.eliminate``); a word with a nonzero
        remainder joins them and is extended on the left by each generator,
        and a new generator extends every word found so far.  Needs only the
        multiplication table and the unit law, not associativity."""
        if self._generators is None:
            ops, gens, found, rows = self.field.ops, [], [], []  # rows: (pivot, row)

            def remainder(coeffs):
                row = {k: v.value for k, v in coeffs.items()}
                for c, pivot in rows:
                    if c in row:
                        eliminate(row, pivot, c, ops)
                return row

            def close(words):
                while words:
                    w = words.pop()
                    row = remainder(w.coeffs)
                    if row:
                        c = min(row)
                        inv = ops.inv(row[c])
                        rows.append((c, {k: ops.mul(v, inv) for k, v in row.items()}))
                        found.append(w)
                        words += [self.basis_element(g) * w for g in gens]

            close([self.unit()])
            for i in range(self.dim):
                if len(rows) < self.dim and remainder({i: self.field.one()}):
                    gens.append(i)
                    close([self.basis_element(i) * w for w in found])
            self._generators = tuple(gens)
        return self._generators

    def row(self, i: int) -> Dict[int, Row]:
        """Row i of the payload product table: j -> the nonzero terms of e_i e_j."""
        raise NotImplementedError

    def mul_basis(self, i: int, j: int) -> Dict[int, Scalar]:
        return {k: Scalar(self.field, v) for k, v in self.row(i).get(j, ())}

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, {i: self.field.one()}, False)

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(self.unit_coeffs), False)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def element(self, coeffs: Mapping[Union[int, str], Union[Scalar, int]]) -> "AlgebraElement":
        """The sum of c e_k over the items k: c, k an index or a label."""
        zero = self.field.zero()  # its _coerce refuses a scalar of another field
        return AlgebraElement(self, _collect(self.field, (
            (k if isinstance(k, int) else self.index_of(k), zero._coerce(v).value)
            for k, v in coeffs.items())), False)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureValidationError(f"unknown basis label {label!r}") from None


class GradedAlgebra(BaseAlgebra):
    """A validated unital associative Z2-graded algebra given by structure
    constants: entries[(i, j, k)] is the coefficient of basis k in the
    product (basis i)(basis j).  Validation runs at construction, in basis
    order: parity compatibility, the two-sided unit law, and (g x) y = g (x y)
    for generators g and basis x, y.  That suffices: the a with
    (a x) y = a (x y) for all x, y contain 1 and are closed under products,
    as ((ab) x) y = a (b (xy)) = (ab)(xy).  For each g and x, both sides are
    summed for every y at once; only if one such pair of sums differs are the
    pairs (i, j) of basis elements summed in order, and the first pair whose
    sums differ, with the least y where they do, names the first failing
    triple."""

    def __init__(self, basis: GradedBasis,
                 entries: Mapping[Tuple[int, int, int], Scalar],
                 field: FieldDescriptor, name: str = ""):
        self.basis = basis
        self.field = field
        self.labels = basis.labels
        self.parity = basis.parity
        self.name = name
        self._rows: List[Dict[int, Row]] = [{} for _ in self.labels]
        for (i, j, k), c in sorted(entries.items()):  # each row's terms in basis order
            if c.is_zero():
                continue
            if self.parity[k] != (self.parity[i] + self.parity[j]) % 2:
                raise StructureValidationError(
                    f"parity violation in product {self.labels[i]}*{self.labels[j]}"
                    f" -> {self.labels[k]}")
            self._rows[i][j] = self._rows[i].get(j, ()) + ((k, c.value),)
        self.unit_coeffs = {basis.unit_index: field.one()}
        self._validate()

    def row(self, i: int) -> Dict[int, Row]:
        return self._rows[i]

    def _validate(self):
        d, u, rows, ops = self.dim, self.basis.unit_index, self._rows, self.field.ops
        for i in range(d):
            if rows[u].get(i) != ((i, ops.one),) or rows[i].get(u) != ((i, ops.one),):
                raise StructureValidationError(
                    f"unit law fails at basis element {self.labels[i]}")
        add, mul, zero = ops.add, ops.mul, self.field.zero().value

        def failing(i, j):  # the y with (e_i e_j) e_y != e_i (e_j e_y), summed per (y, m)
            left = _sum(add, (((y, m), mul(c, e)) for k, c in rows[i].get(j, ())
                              for y, prods in rows[k].items() for m, e in prods))
            right = _sum(add, (((y, m), mul(c, e)) for y, prods in rows[j].items()
                               for k, c in prods for m, e in rows[i].get(k, ())))
            if left == right:
                return []
            return [y for y, m in left.keys() | right.keys()
                    if left.get((y, m), zero) != right.get((y, m), zero)]
        # the a with (a x) y = a (x y) for all x, y form a subalgebra
        if any(failing(g, x) for g in self.generators() for x in range(d)):
            ys, i, j = next((ys, i, j) for i, j in itertools.product(range(d), repeat=2)
                            if (ys := failing(i, j)))
            names = ", ".join(self.labels[t] for t in (i, j, min(ys)))
            raise StructureValidationError(f"associativity fails at ({names})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (self.labels == other.labels and self.parity == other.parity
                and self.basis.unit_index == other.basis.unit_index
                and self.field == other.field and self._rows == other._rows)

    def __hash__(self):
        return hash((self.labels, self.parity, self.field))

    def __repr__(self):
        return f"GradedAlgebra({self.name or ','.join(self.labels)})"


class MatrixSpaceAlgebra(BaseAlgebra):
    """End(V) for a graded carrier V, with the matrix-unit basis E[i,j].
    The parity of E[i,j] is parity(v_i) + parity(v_j); products are the
    usual delta rule E[i,j] E[j,l] = E[i,l], a row generated on demand."""

    def __init__(self, carrier_parity: Sequence[int], field: FieldDescriptor,
                 name: str = ""):
        self.carrier_parity = tuple(carrier_parity)
        self.field = field
        self.name = name
        d = len(self.carrier_parity)
        self.carrier_dim = d
        self.labels = tuple(f"E[{i},{j}]" for i in range(d) for j in range(d))
        self.parity = tuple((self.carrier_parity[i] + self.carrier_parity[j]) % 2
                            for i in range(d) for j in range(d))
        self.unit_coeffs = {i * d + i: field.one() for i in range(d)}

    def row(self, a: int) -> Dict[int, Row]:
        d, one = self.carrier_dim, self.field.ops.one
        i, j = divmod(a, d)
        return {j * d + l: ((i * d + l, one),) for l in range(d)}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MatrixSpaceAlgebra):
            return NotImplemented
        return self.carrier_parity == other.carrier_parity and self.field == other.field

    def __hash__(self):
        return hash((self.carrier_parity, self.field))

    def __repr__(self):
        return f"MatrixSpaceAlgebra(dim={self.carrier_dim})"


# ---------------------------------------------------------------------------
# elements


class _Sparse:
    """Linear structure shared by elements and tensors: ``coeffs`` maps keys
    to nonzero scalars; ``_like`` builds a sibling, ``_check`` its operand,
    ``_space`` what equal siblings share, and ``key_parity`` and ``_label``
    give a key's parity and printed name."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_even(self) -> bool:
        return all(self.key_parity(k) == 0 for k in self.coeffs)

    def even_part(self):
        return self._like({k: c for k, c in self.coeffs.items() if not self.key_parity(k)})

    def odd_part(self):
        return self._like({k: c for k, c in self.coeffs.items() if self.key_parity(k)})

    def __add__(self, other):
        self._check(other)
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc[k] + c if k in acc else c
            if acc[k].is_zero():
                del acc[k]
        return self._like(acc)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s: Union[Scalar, int]):
        if isinstance(s, int):
            s = self.field.from_int(s)
        if s.is_zero():
            return self._like({})
        f, v, mul = s.field, s.value, s.field.ops.mul
        return self._like({k: Scalar(f, mul(v, c.value)) for k, c in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{_factor(c)}*{self._label(k)}"
                          for k, c in sorted(self.coeffs.items()))


class AlgebraElement(_Sparse):
    """Sparse linear combination of basis elements, zero coefficients stripped."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: BaseAlgebra, coeffs: Mapping[int, Scalar], clean=True):
        self.algebra = algebra
        self.coeffs = _clean(coeffs) if clean else coeffs  # kernels pass nonzero sums

    @property
    def field(self) -> FieldDescriptor:
        return self.algebra.field

    def _like(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self.algebra, coeffs, False)

    def _space(self) -> BaseAlgebra:
        return self.algebra

    def key_parity(self, i: int) -> int:
        return self.algebra.parity[i]

    def _label(self, i: int) -> str:
        return self.algebra.labels[i]

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements (zero counts as even), else None."""
        ps = {self.algebra.parity[i] for i in self.coeffs}
        if not ps:
            return 0
        if len(ps) == 1:
            return ps.pop()
        return None

    def _check(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise BasisMismatchError("elements of different algebras")

    def __mul__(self, other):
        self._check(other)
        alg, mul = self.algebra, self.algebra.field.ops.mul

        def terms():
            for i, c in self.coeffs.items():
                row = alg.row(i)
                for j, d in other.coeffs.items():
                    prods = row.get(j)
                    if prods:
                        cd = mul(c.value, d.value)
                        for k, e in prods:
                            yield k, mul(cd, e)
        return AlgebraElement(alg, _collect(alg.field, terms()), False)

    def to_dict(self) -> Dict[str, str]:
        return {self.algebra.labels[i]: str(c)
                for i, c in sorted(self.coeffs.items())}


# ---------------------------------------------------------------------------
# tensors


class TensorElement(_Sparse):
    """Sparse graded tensor; each leg may live over its own algebra."""

    __slots__ = ("legs", "coeffs")

    def __init__(self, legs: Sequence[BaseAlgebra], coeffs: Mapping[Key, Scalar], clean=True):
        self.legs = tuple(legs)
        self.coeffs = _clean(coeffs) if clean else coeffs  # kernels pass nonzero sums

    @property
    def rank(self) -> int:
        return len(self.legs)

    @property
    def field(self) -> FieldDescriptor:
        return self.legs[0].field if self.legs else None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def unit(legs: Sequence[BaseAlgebra]) -> "TensorElement":
        return TensorElement.of(*(leg.unit() for leg in legs))

    @staticmethod
    def from_terms(legs: Sequence[BaseAlgebra], terms) -> "TensorElement":
        """The sum of (key, Scalar) terms, in which a key may repeat."""
        return TensorElement(legs, _collect(legs[0].field, ((k, s.value) for k, s in terms)), False)

    @staticmethod
    def of(*factors: AlgebraElement) -> "TensorElement":
        """The plain tensor product a1 (x) a2 (x) ... of elements."""
        field = factors[0].algebra.field
        return TensorElement(tuple(f.algebra for f in factors), _collect(field, _expand(
            field.ops.mul, field.ops.one, [f.coeffs for f in factors])), False)

    def key_parity(self, key: Key) -> int:
        return sum(self.legs[t].parity[key[t]] for t in range(len(key))) % 2

    def _label(self, key: Key) -> str:
        return "[" + "(x)".join(leg.labels[k] for leg, k in zip(self.legs, key)) + "]"

    # -- linear structure --------------------------------------------------

    def _check(self, other: "TensorElement"):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        for a, b in zip(self.legs, other.legs):
            if a is not b and a != b:
                raise BasisMismatchError("tensor legs over different algebras")

    def _like(self, coeffs) -> "TensorElement":
        return TensorElement(self.legs, coeffs, False)

    def _space(self) -> Tuple[BaseAlgebra, ...]:
        return self.legs

    # -- graded product ------------------------------------------------------

    def __mul__(self, other):
        """Componentwise graded product: the Koszul sign exponent for basis
        keys K (left) and L (right) is sum over i < j of parity(L_i)*parity(K_j):
        mod 2, the bits two masks share, of the i with L_i odd and of the i with
        parity(K_{i+1}) + ... + parity(K_{r-1}) odd (both 0 if every leg is even)."""
        self._check(other)
        legs, field = self.legs, self.legs[0].field
        mul, neg = field.ops.mul, field.ops.neg
        parities = [leg.parity for leg in legs]

        def odd(key):  # bit t: leg t of key is odd
            return sum(1 << t for t, p in enumerate(parities) if p[key[t]])
        right = [(ky, cy.value, odd(ky)) for ky, cy in other.coeffs.items()]

        def terms():
            for kx, cx in self.coeffs.items():
                rows, vx, kodd = [leg.row(k) for leg, k in zip(legs, kx)], cx.value, odd(kx)
                after = sum(1 << t for t in range(len(parities)) if (kodd >> t + 1).bit_count() & 1)
                for ky, vy, lodd in right:
                    prods = list(map(dict.get, rows, ky))  # rows are dicts; None: e_i e_j = 0
                    if None in prods:
                        continue
                    c = mul(vx, vy)
                    if lodd & after and (lodd & after).bit_count() & 1:
                        c = neg(c)
                    for legterms in itertools.product(*prods):  # one (k, payload) per leg
                        v = c
                        for _, w in legterms:
                            v = mul(v, w)
                        yield tuple([k for k, _ in legterms]), v
        return TensorElement(legs, _collect(field, terms()), False)

    # -- permutations ---------------------------------------------------------

    def permute(self, perm: Sequence[int]) -> "TensorElement":
        """Graded leg permutation: output leg j carries input leg perm[j];
        the sign counts inverted pairs of odd legs."""
        r = self.rank
        perm = tuple(perm)
        if sorted(perm) != list(range(r)):
            raise InvalidPermutationError(f"{perm} is not a permutation of 0..{r - 1}")
        legs, parities = tuple(self.legs[p] for p in perm), [leg.parity for leg in self.legs]
        swapped = [(s, t) for a, s in enumerate(perm) for t in perm[a + 1:] if s > t]
        return TensorElement(legs, {  # keys stay distinct
            tuple(key[p] for p in perm): -c if sum(
                parities[s][key[s]] & parities[t][key[t]] for s, t in swapped) % 2 else c
            for key, c in self.coeffs.items()}, False)

    def swap(self) -> "TensorElement":
        """The graded twist on a rank-2 tensor."""
        return self.permute((1, 0))

    # -- multiplication map ---------------------------------------------------

    def merge(self, i: int, j: int) -> "TensorElement":
        """Multiply adjacent legs i and j = i+1 together (rank drops by one)."""
        if j != i + 1:
            raise RankMismatchError(
                "only adjacent legs can be merged; permute first")
        if not 0 <= i < self.rank - 1:
            raise RankMismatchError("leg out of range")
        a, b = self.legs[i], self.legs[j]
        if a is not b and a != b:
            raise BasisMismatchError("merged legs must share one algebra")
        mul = a.field.ops.mul
        return TensorElement(self.legs[:i] + self.legs[i + 1:], _collect(a.field, (
            (key[:i] + (k,) + key[j + 1:], mul(c.value, e)) for key, c in self.coeffs.items()
            for k, e in a.row(key[i]).get(key[j], ()))), False)

    def merge_all(self) -> AlgebraElement:
        """Collapse all legs with the product map, left to right."""
        out = self
        while out.rank > 1:
            out = out.merge(0, 1)
        return out.as_element()

    # -- maps on legs -----------------------------------------------------------

    def apply_maps(self, assignments: Sequence[Tuple[int, "LinearMap"]]) -> "TensorElement":
        """Apply parity-preserving linear maps to the indicated legs, identity
        elsewhere.  Because the maps are even, no Koszul signs arise."""
        for leg, m in assignments:
            if not 0 <= leg < self.rank:
                raise RankMismatchError(f"leg {leg} out of range for rank {self.rank}")
            if not m.parity_preserving:
                raise OddMapError(
                    "only parity-preserving maps may be applied on legs")
        out = self
        for leg, m in sorted(assignments, key=lambda lm: -lm[0]):
            src = out.legs[leg]
            if m.source is not src and m.source != src:
                raise BasisMismatchError("map source does not match the leg algebra")
            legs = out.legs[:leg] + m.target_legs + out.legs[leg + 1:]
            mul, images = src.field.ops.mul, m.images
            out = TensorElement(legs, _collect(src.field, (
                (key[:leg] + ikey + key[leg + 1:], mul(c.value, d.value))
                for key, c in out.coeffs.items()
                for ikey, d in images[key[leg]].coeffs.items())), False)
        return out

    # -- embedding ----------------------------------------------------------------

    def embed(self, slots: Sequence[int], legs: Sequence[BaseAlgebra]) -> "TensorElement":
        """Place this tensor's legs at the given (strictly increasing) slots
        of a larger tensor, units elsewhere.  Units are even, so no signs."""
        slots = tuple(slots)
        if len(slots) != self.rank or list(slots) != sorted(set(slots)):
            raise InvalidPermutationError("slots must be strictly increasing")
        legs = tuple(legs)
        for t, s in enumerate(slots):
            if not 0 <= s < len(legs):
                raise RankMismatchError("slot out of range")
            if legs[s] is not self.legs[t] and legs[s] != self.legs[t]:
                raise BasisMismatchError("slot algebra does not match tensor leg")
        slot_of = {s: t for t, s in enumerate(slots)}
        field = legs[0].field
        mul, one = field.ops.mul, field.one()
        terms = (term for key, c in self.coeffs.items() for term in _expand(mul, c.value, [
            {key[slot_of[pos]]: one} if pos in slot_of else leg.unit_coeffs
            for pos, leg in enumerate(legs)]))
        return TensorElement(legs, _collect(field, terms), False)

    # -- conversions -----------------------------------------------------------------

    def as_element(self) -> AlgebraElement:
        if self.rank != 1:
            raise RankMismatchError("only rank-1 tensors convert to elements")
        return AlgebraElement(self.legs[0], {k[0]: c for k, c in self.coeffs.items()}, False)


# ---------------------------------------------------------------------------
# linear maps


class LinearMap:
    """A linear map from one algebra into a tensor power, stored as the image
    of every basis element.  ``odd_at`` is the first basis index whose image
    has the other parity, or None, and then the map is ``parity_preserving``."""

    def __init__(self, source: BaseAlgebra, target_legs: Sequence[BaseAlgebra],
                 images: Sequence[TensorElement], name: str = ""):
        self.source = source
        self.target_legs = tuple(target_legs)
        self.images = list(images)
        self.name = name
        if len(self.images) != source.dim:
            raise StructureValidationError(
                f"map {name or '?'} needs one image per basis element")
        for img in self.images:
            if img.rank != len(self.target_legs):
                raise StructureValidationError(f"map {name or '?'}: image rank mismatch")
        self.odd_at = next((i for i, img in enumerate(self.images)
                            if any(img.key_parity(key) != source.parity[i]
                                   for key in img.coeffs)), None)
        self.parity_preserving = self.odd_at is None

    @property
    def target_rank(self) -> int:
        return len(self.target_legs)

    def __call__(self, x: AlgebraElement):
        """Linear extension; rank-1 images collapse to an element, rank-0 to a scalar."""
        if x.algebra is not self.source and x.algebra != self.source:
            raise BasisMismatchError("element does not belong to the map's source")
        field, images, mul = self.source.field, self.images, self.source.field.ops.mul
        out = TensorElement(self.target_legs, _collect(field, (
            (key, mul(c.value, d.value))
            for i, c in x.coeffs.items() for key, d in images[i].coeffs.items())), False)
        if self.target_rank == 1:
            return out.as_element()
        if self.target_rank == 0:
            return out.coeffs[()] if out.coeffs else field.zero()
        return out

    def on_basis(self, i: int) -> TensorElement:
        return self.images[i]

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.source == other.source and self.target_legs == other.target_legs
                and self.images == other.images)

    def __repr__(self):
        return f"LinearMap({self.name or '?'}: 1 -> {self.target_rank})"


def linear_form(source: BaseAlgebra, values: Sequence[Scalar], name: str = "") -> LinearMap:
    """The rank-0 map taking the value values[i] on basis element i."""
    return LinearMap(source, (), [TensorElement((), {(): v}) for v in values], name=name)


def quantify(algebra: BaseAlgebra, diff: Callable, arity: int = 1,
             sound: bool = False) -> AxiomCheck:
    """An unnamed AxiomCheck: the first basis tuple (i, ...), in order, with
    diff(i, ...) nonzero gives its witness and element; ``over`` is
    "generators" or "basis", ``size`` the number of values of i.  With
    ``sound`` the caller vouches that the a with diff(a, ...) = 0 for all
    tuples form a subalgebra, so i runs over the generators; a failure
    there is searched again over the basis, so witnesses do not change."""
    def first(domain):
        for idx in itertools.product(domain, *[range(algebra.dim)] * (arity - 1)):
            d = diff(*idx)
            if not d.is_zero():
                names = [algebra.labels[i] for i in idx]
                return d, names[0] if arity == 1 else f"({', '.join(names)})"
        return None

    if sound and first(algebra.generators()) is None:
        return AxiomCheck("", True, over="generators", size=len(algebra.generators()))
    hit = first(range(algebra.dim))
    return AxiomCheck("", hit is None, *(hit or (None, None)), "basis", algebra.dim)


def require(check: AxiomCheck, error, message: str) -> None:
    """The one way a construction rejects a failed check: raise
    error(message) with the check's element in its {}."""
    if not check.passed:
        raise error(message.format(check.element))


def centralizes(algebra: BaseAlgebra, t, image: Callable = lambda a: a,
                sound: bool = True) -> AxiomCheck:
    """quantify t image(a) = image(a) t over basis elements a; ``sound``
    when image is a unital homomorphism."""
    def diff(i):
        x = image(algebra.basis_element(i))
        return t * x - x * t
    return quantify(algebra, diff, 1, sound)


def multiplicativity(algebra: BaseAlgebra, f: Callable, sound: bool,
                     anti: bool = False) -> AxiomCheck:
    """quantify f(a x) = f(a) f(x), or with ``anti`` the graded rule
    f(a x) = (-1)^{[a][x]} f(x) f(a), over basis pairs.  ``sound`` when
    f(1) = 1, as source and target are associative."""
    e = algebra.basis_element
    images = [f(e(i)) for i in range(algebra.dim)]

    def diff(i, j):
        if not anti:
            return f(e(i) * e(j)) - images[i] * images[j]
        rhs = images[j] * images[i]
        return f(e(i) * e(j)) - (-rhs if algebra.parity[i] * algebra.parity[j] else rhs)
    return quantify(algebra, diff, 2, sound)

