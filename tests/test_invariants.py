import itertools

import pytest

from qhopf.catalog import BUILTIN_NAMES, load_builtin
from qhopf.errors import NotInvariantError, OddElementError
from qhopf.graded import linear_form
from qhopf.invariants import (
    adjoint_action,
    anti_adjoint_action,
    center,
    invariant_bilinear_forms,
    invariant_linear_forms,
    invariant_maps,
    invariant_subspace,
    is_central,
    is_invariant_element,
    is_invariant_form,
    is_invariant_map,
    is_pseudo_invariant_element,
    is_pseudo_invariant_form,
    module_action,
    module_morphism_from_invariant,
    pseudo_invariant_linear_forms,
    pseudo_invariant_subspace,
)
from reference import _mat_mul


def el(H, label):
    return H.algebra.basis_element(H.algebra.index_of(label))


# -- actions -------------------------------------------------------------


def test_adjoint_examples(e1, e3):
    H1 = e1.structure
    g = el(H1, "g")
    assert adjoint_action(H1, g, g) == g
    for i in range(H1.algebra.dim):
        b = H1.algebra.basis_element(i)
        assert adjoint_action(H1, H1.algebra.unit(), b) == b
        assert anti_adjoint_action(H1, H1.algebra.unit(), b) == b

    H3 = e3.structure
    assert adjoint_action(H3, el(H3, "g"), el(H3, "x")) == -el(H3, "x")
    assert anti_adjoint_action(H3, el(H3, "g"), el(H3, "x")) == -el(H3, "x")


def test_action_composition_rules(e3, e4):
    """Ad a Ad b = Ad(ab) and the reversed rule for the anti-adjoint action."""
    for entry in (e3, e4):
        H = entry.structure
        A = H.algebra
        for i in range(A.dim):
            for j in range(A.dim):
                a, b = A.basis_element(i), A.basis_element(j)
                for k in range(A.dim):
                    c = A.basis_element(k)
                    assert adjoint_action(H, a, adjoint_action(H, b, c)) == \
                        adjoint_action(H, a * b, c)
                    assert anti_adjoint_action(H, a, anti_adjoint_action(H, b, c)) == \
                        anti_adjoint_action(H, b * a, c)


# -- invariant subspaces ----------------------------------------------------


def test_invariant_subspace_z2(e1):
    sub = invariant_subspace(e1.structure)
    assert len(sub.even) == 2 and not sub.odd  # commutative: everything


def test_beta_alpha_memberships(e1, e2, e3, e4, e5):
    for entry in (e1, e2, e3, e4, e5):
        H = entry.structure
        assert is_invariant_element(H, H.beta)
        assert is_pseudo_invariant_element(H, H.alpha)
        sub = invariant_subspace(H)
        assert any(v for v in sub.even)  # nonempty even part
        for v in sub.even + sub.odd:
            assert is_invariant_element(H, v)
        for v in pseudo_invariant_subspace(H).even:
            assert is_pseudo_invariant_element(H, v)


def test_centrality(e1, e3, e4):
    H1, H3, H4 = e1.structure, e3.structure, e4.structure
    assert is_central(H1, H1.algebra.unit())[0]
    assert is_central(H1, el(H1, "g"))[0]
    ok, witness = is_central(H3, el(H3, "x"))
    assert not ok and witness[0] == "g" and not witness[1].is_zero()

    z1 = center(H1)
    assert len(z1.even) == 2
    z3 = center(H3)
    assert len(z3.even) == 1 and not z3.odd
    assert z3.even[0] == H3.algebra.unit()
    z4 = center(H4)
    assert len(z4.even) == 1 and len(z4.odd) == 1  # 1 and theta both central


def test_center_brute_force_oracle(e3):
    """Cross-check the solved center against direct commutator enumeration
    over all 16 integer coefficient vectors in {-1, 0, 1}^4 restricted to
    the found span."""
    H = e3.structure
    A = H.algebra
    z = center(H)
    span = z.even + z.odd
    for coeffs in itertools.product((-1, 0, 1), repeat=len(span)):
        x = A.zero()
        for c, v in zip(coeffs, span):
            x = x + v.scale(c)
        assert is_central(H, x)[0]


# -- linear forms --------------------------------------------------------------


def test_counit_is_invariant_form():
    for name in BUILTIN_NAMES:
        H = load_builtin(name).structure
        eps = H.counit  # a rank-0 map, like every linear form
        assert eps.target_rank == 0 and eps.parity_preserving
        assert is_invariant_form(H, eps)
        assert is_pseudo_invariant_form(H, eps)


def test_linear_form_spaces(e2, e3):
    for entry in (e2, e3):
        H = entry.structure
        for xi in invariant_linear_forms(H):
            assert is_invariant_form(H, xi)
        for xi in pseudo_invariant_linear_forms(H):
            assert is_pseudo_invariant_form(H, xi)


# -- bilinear forms --------------------------------------------------------------


def _check_bilinear_invariance(H, V, W, B):
    """Direct statement-level check, assembled independently of the solver."""
    A = H.algebra
    for idx in range(A.dim):
        eps_a = H.eps(A.basis_element(idx))
        for i in range(V.dim):
            for j in range(W.dim):
                acc = A.field.zero()
                for (k1, k2), d in H.coproduct.on_basis(idx).coeffs.items():
                    mv = V.matrix_of(A.basis_element(k1))
                    mw = W.matrix_of(A.basis_element(k2))
                    sign = -1 if (V.carrier_parity[i] * A.parity[k2]) % 2 else 1
                    for p in range(V.dim):
                        for q in range(W.dim):
                            term = d * mv[p][i] * mw[q][j] * B[p][q]
                            acc = acc + (term if sign == 1 else -term)
                assert acc == eps_a * B[i][j]


def test_bilinear_forms_trivial_rep(e1):
    H = e1.structure
    triv = e1.representations["trivial"]
    forms = invariant_bilinear_forms(H, triv, triv)
    assert len(forms) == 1  # every form on a 1-dim trivial module


def test_bilinear_forms_regular(e1, e3, e4):
    for entry in (e1, e3, e4):
        H = entry.structure
        reg = entry.representations["regular"]
        forms = invariant_bilinear_forms(H, reg, reg)
        assert forms  # group-algebra style modules carry invariant forms
        for B in forms:
            _check_bilinear_invariance(H, reg, reg, B)


def test_bilinear_forms_pad_each_module_once_per_structure(e3, monkeypatch):
    import qhopf.invariants as invariants
    built = []
    real = invariants.direct_sum
    monkeypatch.setattr(invariants, "direct_sum",
                        lambda V, W: built.append((V, W)) or real(V, W))
    H = e3.structure.with_data()
    reg = e3.representations["regular"]
    first = invariant_bilinear_forms(H, reg, reg)
    assert len(built) == 1  # V and W are the same module: one padded sum
    assert invariant_bilinear_forms(H, reg, reg) == first
    assert len(built) == 1


# -- module morphisms -------------------------------------------------------------


def test_module_action_unit(e2):
    H = e2.structure
    reg = e2.representations["regular"]
    f = reg.matrix_of(el(H, "g"))
    assert module_action(H, reg, reg, H.algebra.unit(), f, 0) == f


def test_hopf_case_projection_is_identity(e1, e3):
    # with trivial coassociator and alpha = 1 the projection collapses to f
    for entry in (e1, e3):
        H = entry.structure
        reg = entry.representations["regular"]
        even, _ = invariant_maps(H, reg, reg)
        assert even
        for f in even:
            assert module_morphism_from_invariant(f, H, reg, reg) == f


def test_projection_on_cocycle_entry(e2):
    H = e2.structure
    reg = e2.representations["regular"]
    even, odd = invariant_maps(H, reg, reg)
    assert even and not odd
    for f in even:
        ft = module_morphism_from_invariant(f, H, reg, reg)
        for i in range(H.algebra.dim):
            b = H.algebra.basis_element(i)
            assert _mat_mul(reg.matrix_of(b), ft, H.algebra.field) == \
                _mat_mul(ft, reg.matrix_of(b), H.algebra.field)
        assert _mat_mul(reg.matrix_of(H.beta), ft, H.algebra.field) == f


def test_projection_between_different_modules(e2):
    H = e2.structure
    triv = e2.representations["trivial"]
    reg = e2.representations["regular"]
    even, _ = invariant_maps(H, triv, reg)
    assert even  # the integral column spans the invariant maps
    for f in even:
        ft = module_morphism_from_invariant(f, H, triv, reg)
        for i in range(H.algebra.dim):
            b = H.algebra.basis_element(i)
            assert _mat_mul(reg.matrix_of(b), ft, H.algebra.field) == \
                _mat_mul(ft, triv.matrix_of(b), H.algebra.field)


def test_projection_of_zero(e2):
    H = e2.structure
    reg = e2.representations["regular"]
    zero = [[H.algebra.field.zero()] * reg.dim for _ in range(reg.dim)]
    assert module_morphism_from_invariant(zero, H, reg, reg) == zero


def test_projection_rejects_bad_input(e2):
    H = e2.structure
    reg = e2.representations["regular"]
    not_invariant = reg.matrix_of(el(H, "g"))
    if not is_invariant_map(H, reg, reg, not_invariant, 0):
        with pytest.raises(NotInvariantError):
            module_morphism_from_invariant(not_invariant, H, reg, reg)


def test_odd_map_rejected(e4):
    H = e4.structure
    reg = e4.representations["regular"]
    _, odd = invariant_maps(H, reg, reg)
    if odd:
        with pytest.raises(OddElementError):
            module_morphism_from_invariant(odd[0], H, reg, reg)


def test_hom_module_is_built_once_per_pair(e3, monkeypatch):
    import qhopf.invariants as invariants
    built = []
    real = invariants.direct_sum
    monkeypatch.setattr(invariants, "direct_sum",
                        lambda V, W: built.append((V, W)) or real(V, W))
    H = e3.structure.with_data()
    reg = e3.representations["regular"]
    f = reg.matrix_of(el(H, "g"))
    first = module_action(H, reg, reg, el(H, "x"), f, 0)
    assert module_action(H, reg, reg, el(H, "x"), f, 0) == first
    is_invariant_map(H, reg, reg, f, 0)
    even, _ = invariant_maps(H, reg, reg)
    assert all(module_morphism_from_invariant(m, H, reg, reg) == m for m in even)
    assert len(built) == 1
    # a linear combination acts as the combination of the basis actions
    a = el(H, "x") + el(H, "gx").scale(3)
    combo = module_action(H, reg, reg, a, f, 0)
    parts = [module_action(H, reg, reg, el(H, lab), f, 0) for lab in ("x", "gx")]
    assert combo == [[p + 3 * q for p, q in zip(r1, r2)]
                     for r1, r2 in zip(*parts)]


# -- one row system per action serves the form spaces and the membership tests --


def _pointwise_oracle(H, action):
    """xi -> [xi(action(e_i, e_j)) == eps(e_i) xi_j over the whole basis]."""
    A = H.algebra
    table = [(H.eps(A.basis_element(i)), j, action(H, A.basis_element(i), A.basis_element(j)))
             for i in range(A.dim) for j in range(A.dim)]
    return lambda xi: all(xi(image) == eps * xi(A.basis_element(j)) for eps, j, image in table)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_form_membership_agrees_with_the_pointwise_oracle(name):
    H = load_builtin(name).structure
    A = H.algebra
    for solve, member, action in (
            (invariant_linear_forms, is_invariant_form, adjoint_action),
            (pseudo_invariant_linear_forms, is_pseudo_invariant_form, anti_adjoint_action)):
        fixes = _pointwise_oracle(H, action)
        forms = solve(H)  # memoises the rows the membership tests read
        assert forms
        changed_fails = False
        for xi in forms:
            assert member(H, xi) and fixes(xi)
            for k in range(A.dim):
                values = [xi(A.basis_element(i)) for i in range(A.dim)]
                values[k] = values[k] + 1
                changed = linear_form(A, values)
                assert member(H, changed) == fixes(changed)
                changed_fails = changed_fails or not member(H, changed)
        # xi + delta_k stays fixed for every k only if every form is fixed
        assert changed_fails == (len(forms) < A.dim)


def test_form_rows_are_built_once_per_action(e3, monkeypatch):
    import qhopf.invariants as invariants
    from qhopf.casimir import trace_forms
    calls = {"ad": 0, "anti": 0}

    def counting(key, real):
        def action(H, a, b):
            calls[key] += 1
            return real(H, a, b)
        return action

    monkeypatch.setattr(invariants, "adjoint_action", counting("ad", adjoint_action))
    monkeypatch.setattr(invariants, "anti_adjoint_action",
                        counting("anti", anti_adjoint_action))
    H = e3.structure.with_data()
    A = H.algebra
    for _ in range(2):
        for xi in invariant_linear_forms(H):
            assert is_invariant_form(H, xi)
        for xi in pseudo_invariant_linear_forms(H):
            assert is_pseudo_invariant_form(H, xi)
        for rep in e3.representations.values():
            trace_forms(H, rep)
    one_system = len(A.generators()) * A.dim  # the actions are actions here
    assert calls == {"ad": one_system, "anti": one_system}
