"""Independent oracles for the constructions that run on End(V) legs.

Each test compares the engine against a second formula for the same object:
the represented Casimir against the symbolic trace family ``casimir_Cm``,
invariant maps and invariant bilinear forms against invariance systems
assembled here from list matrices and explicit Koszul signs, and the
u-operator against its printed double sum, expanded term by term.
"""

import itertools

from qhopf.casimir import casimir_Cm, casimir_from_omega_rep, rtr_power, u_sum
from qhopf.catalog import BUILTIN_NAMES, load_builtin
from qhopf.invariants import invariant_bilinear_forms, invariant_maps
from qhopf.linalg import nullspace, rows_of
from qhopf.representations import apply_rep_on_leg
from qhopf.scalars import RATIONALS
from reference import _mat_mul
from qhopf.twisting import twist_structure


def test_omega_rep_matches_cm_for_every_rep_and_power(e1, e3, e4, e5):
    for entry in (e1, e3, e4, e5):
        H = entry.structure
        for name, rep in sorted(entry.representations.items()):
            for m in (-1, 0, 1, 2):
                omega = rtr_power(H, m)
                cm, cmbar = casimir_Cm(H, rep, m)
                forward = casimir_from_omega_rep(H, rep, apply_rep_on_leg(omega, 1, rep))
                mirror = casimir_from_omega_rep(
                    H, rep, apply_rep_on_leg(omega, 0, rep), mirror=True)
                assert forward == cm, (entry.name, name, m)
                assert mirror == cmbar, (entry.name, name, m)


def _map_defects(H, V, W, f, parity):
    """a . f - eps(a) f for every basis a, where
    (a . f) = sum W(a_(1)) f V(S(a_(2))) (-1)^{[f][a_(2)]}."""
    A, field = H.algebra, H.algebra.field
    out = []
    for idx in range(A.dim):
        eps_a = H.eps(A.basis_element(idx))
        acc = [[-eps_a * f[p][q] for q in range(V.dim)] for p in range(W.dim)]
        for (k1, k2), d in H.coproduct.on_basis(idx).coeffs.items():
            m = _mat_mul(_mat_mul(W.matrix_of(A.basis_element(k1)), f, field),
                         V.matrix_of(H.s(A.basis_element(k2))), field)
            sign = -1 if parity * A.parity[k2] % 2 else 1
            for p in range(W.dim):
                for q in range(V.dim):
                    acc[p][q] = acc[p][q] + sign * d * m[p][q]
        out.append(acc)
    return out


def test_invariant_maps_on_odd_carrier(e4):
    """grassmann-theta: its regular module has an odd carrier vector."""
    H = e4.structure
    field = H.algebra.field
    zero, one = field.zero(), field.one()
    found = 0
    for vn, wn in itertools.product(("trivial", "regular"), repeat=2):
        V, W = e4.representations[vn], e4.representations[wn]
        for parity, maps in enumerate(invariant_maps(H, V, W)):
            positions = [(p, q) for p in range(W.dim) for q in range(V.dim)
                         if (W.carrier_parity[p] + V.carrier_parity[q]) % 2 == parity]
            columns = []
            for p0, q0 in positions:
                unit = [[one if (p, q) == (p0, q0) else zero for q in range(V.dim)]
                        for p in range(W.dim)]
                defects = _map_defects(H, V, W, unit, parity)
                columns.append({(i, p, q): x for i, dm in enumerate(defects)
                                for p, row in enumerate(dm) for q, x in enumerate(row)})
            expected = nullspace(rows_of(columns), len(positions), field)
            assert len(maps) == len(expected), (vn, wn, parity)
            for f in maps:
                assert all(f[p][q].is_zero() for p in range(W.dim) for q in range(V.dim)
                           if (p, q) not in positions)
                assert all(x.is_zero() for dm in _map_defects(H, V, W, f, parity)
                           for row in dm for x in row), (vn, wn, parity)
            found += len(maps)
    assert found


def _bilinear_rows(H, V, W):
    """The invariance of B[i][j] = (v_i, w_j) for every basis a, as rows over
    the unknowns i * W.dim + j:
    sum d V(a_(1))[p][i] W(a_(2))[q][j] (-1)^{[v_i][a_(2)]} B[p][q] = eps(a) B[i][j]."""
    A = H.algebra
    rows = []
    for idx in range(A.dim):
        eps_a = H.eps(A.basis_element(idx))
        for i in range(V.dim):
            for j in range(W.dim):
                row = {i * W.dim + j: -eps_a}
                for (k1, k2), d in H.coproduct.on_basis(idx).coeffs.items():
                    mv = V.matrix_of(A.basis_element(k1))
                    mw = W.matrix_of(A.basis_element(k2))
                    sign = -1 if V.carrier_parity[i] * A.parity[k2] % 2 else 1
                    for p in range(V.dim):
                        for q in range(W.dim):
                            key = p * W.dim + q
                            row[key] = row.get(key, A.field.zero()) \
                                + sign * d * mv[p][i] * mw[q][j]
                rows.append(row)
    return rows


def test_bilinear_forms_are_complete_on_every_rational_pair():
    """As many forms as the hand-signed system has solutions, and each solves it."""
    pairs = 0
    for name in BUILTIN_NAMES:
        entry = load_builtin(name)
        H = entry.structure
        if H.algebra.field.kind != RATIONALS:
            continue
        reps = sorted(entry.representations.items())
        for (vn, V), (wn, W) in itertools.product(reps, repeat=2):
            rows = _bilinear_rows(H, V, W)
            forms = invariant_bilinear_forms(H, V, W)
            assert len(forms) == len(nullspace(rows, V.dim * W.dim, H.algebra.field)), \
                (name, vn, wn)
            for B in forms:
                flat = [c for line in B for c in line]
                assert all(sum((c * flat[k] for k, c in row.items()),
                               H.algebra.field.zero()).is_zero() for row in rows), (name, vn, wn)
            pairs += 1
    assert pairs == 30


def _u_double_sum(H):
    """u = sum S(Y beta S(Z)) S(e^i) alpha e_i X (-1)^{[e_i]+[X]} over
    phi = X (x) Y (x) Z and R = e_i (x) e^i, term by term."""
    A = H.algebra
    u = A.zero()
    for (x, y, z), cphi in H.phi.coeffs.items():
        left = H.s(A.basis_element(y) * H.beta * H.s(A.basis_element(z)))
        for (i, j), cr in H.r.coeffs.items():
            term = (left * H.s(A.basis_element(j)) * H.alpha * A.basis_element(i)
                    * A.basis_element(x)).scale(cphi * cr)
            u = u + (-term if (A.parity[i] + A.parity[x]) % 2 else term)
    return u


def test_u_sum_matches_printed_double_sum():
    checked = 0
    for name in BUILTIN_NAMES:
        entry = load_builtin(name)
        if entry.structure.r is None:
            continue
        for F in [None] + [entry.twistors[t] for t in sorted(entry.twistors)]:
            H = entry.structure if F is None else twist_structure(entry.structure, F)
            assert u_sum(H) == _u_double_sum(H), (name, F and F.name)
            checked += 1
    assert checked >= 10
