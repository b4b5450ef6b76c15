import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunpic.exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    canonical_generators,
    group_from_relations,
    hermite_normal_form,
    kernel_basis,
    quotient_group,
    rational_coordinates,
    saturation,
    smith_normal_form,
    solve_congruence_sublattice,
)
from reference import (
    GroupHom,
    cokernel,
    contains_lattice,
    det,
    group_by_smith,
    rational_solve,
    saturation_by_kernels,
    solve,
)


def spans_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Independent oracle: column spans agree iff each column of one is an
    integer combination of the columns of the other."""
    return all(solve(b, a.column(j)) is not None for j in range(a.cols)) and all(
        solve(a, b.column(j)) is not None for j in range(b.cols)
    )


def test_hnf_identity():
    m = IntMatrix.identity(2)
    h, u = hermite_normal_form(m)
    assert h == IntMatrix.identity(2)
    assert u == IntMatrix.identity(2)


def test_hnf_zero():
    m = IntMatrix.zero(2, 2)
    h, u = hermite_normal_form(m)
    assert h == IntMatrix.zero(2, 2)
    assert abs(det(u)) == 1


def test_hnf_2x2_span_and_transform():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    h, u = hermite_normal_form(m)
    assert abs(det(u)) == 1
    assert m.mul(u) == h
    assert spans_equal(h, m)


def test_hnf_random_matrices_canonical():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        h, u = hermite_normal_form(m)
        assert abs(det(u)) == 1
        assert m.mul(u) == h
        assert spans_equal(h, m)
        # canonical: recomputing from a shuffled generating set gives same lattice basis
        cols = m.columns()
        rng.shuffle(cols)
        cols.append(m.column(0))
        again = Lattice.from_columns(nr, cols)
        assert again == Lattice.from_columns(nr, m.columns())


def test_snf_identity():
    s, u, v, _ = smith_normal_form(IntMatrix.identity(3))
    assert s == IntMatrix.identity(3)


def test_snf_2x2_derived():
    # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8 -> diag(2, 4)
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    s, u, v, _ = smith_normal_form(m)
    assert (s[0, 0], s[1, 1]) == (2, 4)
    assert u.mul(m).mul(v) == s
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_diag_6_4():
    # invariant factors of Z/6 + Z/4 are (2, 12)
    m = IntMatrix.from_rows([[6, 0], [0, 4]])
    s, _, _, _ = smith_normal_form(m)
    assert (s[0, 0], s[1, 1]) == (2, 12)


def test_snf_random_property():
    rng = random.Random(11)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        s, u, v, _ = smith_normal_form(m)
        assert u.mul(m).mul(v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diags = [s[i, i] for i in range(min(nr, nc))]
        for a, b in zip(diags, diags[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert s[i, j] == 0


def test_cokernel_zero_map():
    f = GroupHom(FGAbelianGroup.free(1), FGAbelianGroup.free(1), IntMatrix.from_rows([[0]]))
    assert cokernel(f) == FGAbelianGroup.free(1)


def test_cokernel_multiplication_by_n():
    for n in (2, 3, 8):
        f = GroupHom(FGAbelianGroup.free(1), FGAbelianGroup.free(1), IntMatrix.from_rows([[n]]))
        assert cokernel(f) == FGAbelianGroup.cyclic(n)


def test_cokernel_diag_2_3():
    f = GroupHom(
        FGAbelianGroup.free(2),
        FGAbelianGroup.free(2),
        IntMatrix.from_rows([[2, 0], [0, 3]]),
    )
    assert cokernel(f) == FGAbelianGroup.cyclic(6)


def test_cokernel_unimodular_invariance():
    rng = random.Random(3)
    for _ in range(20):
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        # random unimodular change of source generators
        w = IntMatrix.from_rows([[1, rng.randint(-3, 3)], [0, 1]]).mul(
            IntMatrix.from_rows([[1, 0], [rng.randint(-3, 3), 1]])
        )
        f = GroupHom(FGAbelianGroup.free(2), FGAbelianGroup.free(2), m)
        g = GroupHom(FGAbelianGroup.free(2), FGAbelianGroup.free(2), m.mul(w))
        assert cokernel(f) == cokernel(g)


def test_grouphom_rejects_torsion_violation():
    with pytest.raises(ValueError):
        GroupHom(FGAbelianGroup.cyclic(2), FGAbelianGroup.free(1), IntMatrix.from_rows([[1]]))


def test_cokernel_from_torsion_source():
    # Z/2 -> Z/4 sending the generator to the class of 2 has cokernel Z/2
    f = GroupHom(FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(4), IntMatrix.from_rows([[2]]))
    assert cokernel(f) == FGAbelianGroup.cyclic(2)


def brute_force_congruence(ambient, conditions, box):
    pts = []
    for v in product(range(-box, box + 1), repeat=ambient):
        ok = True
        for f, m in conditions:
            val = sum(a * b for a, b in zip(f, v))
            if m == 0:
                ok = val == 0
            else:
                ok = val % m == 0
            if not ok:
                break
        if ok:
            pts.append(v)
    return set(pts)


def image_order(ambient, conditions):
    """Order of the image of Z^ambient inside prod Z/m_i under the condition map."""
    gens = []
    moduli = [m for _, m in conditions]
    for i in range(ambient):
        gens.append(tuple(f[i] % m if m else 0 for f, m in zip([c[0] for c in conditions], moduli)))
    seen = {tuple(0 for _ in conditions)}
    frontier = [tuple(0 for _ in conditions)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m if m else 0 for a, b, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def test_congruence_no_conditions():
    assert solve_congruence_sublattice(3, []) == Lattice.full(3)


def test_congruence_modulus_one_vacuous():
    assert solve_congruence_sublattice(2, [((5, -3), 1)]) == Lattice.full(2)


def test_congruence_parity_index_two():
    l = solve_congruence_sublattice(2, [((1, 1), 2)])
    expected = Lattice.from_columns(2, [(1, 1), (0, 2)])
    assert l == expected
    assert quotient_group(Lattice.full(2), l).order() == 2


def test_congruence_zero_modulus_is_exact_vanishing():
    l = solve_congruence_sublattice(2, [((1, -1), 0)])
    assert l.rank == 1
    assert l.contains((1, 1))
    assert not l.contains((1, 0))


def test_congruence_matches_enumeration():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, 2)
        conditions = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice([1, 2, 3, 4, 5, 6]))
            for _ in range(k)
        ]
        l = solve_congruence_sublattice(n, conditions)
        pts = brute_force_congruence(n, conditions, 4)
        for v in pts:
            assert l.contains(v)
        for c in l.basis.columns():
            for f, m in conditions:
                val = sum(a * b for a, b in zip(f, c))
                assert val % m == 0 if m else val == 0
        # index law: [Z^n : L] equals the order of the image of the condition map
        assert quotient_group(Lattice.full(n), l).order() == image_order(n, conditions)


def test_saturation_full_rank():
    l = Lattice.from_columns(2, [(2, 0), (0, 2)])
    assert saturation(l) == Lattice.full(2)


def test_saturation_primitive_vector():
    l = Lattice.from_columns(2, [(2, 4)])
    assert saturation(l) == Lattice.from_columns(2, [(1, 2)])


def test_saturation_idempotent():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)]
        l = Lattice.from_columns(n, cols)
        s = saturation(l)
        assert saturation(s) == s
        assert contains_lattice(s, l)
        assert s.rank == l.rank


@st.composite
def saturation_cases(draw):
    """A lattice in Z^n, n <= 6, of rank 0..n: columns scaled by 1..4, so
    several are not primitive, and some columns repeated."""
    n = draw(st.integers(0, 6))
    cols = [[draw(st.integers(1, 4)) * draw(st.integers(-5, 5)) for _ in range(n)]
            for _ in range(draw(st.integers(0, n)))]
    if cols:
        cols += [cols[i] for i in draw(st.lists(st.integers(0, len(cols) - 1), max_size=3))]
    return Lattice.from_columns(n, cols)


@settings(max_examples=300, deadline=None)
@given(saturation_cases())
def test_saturation_matches_the_kernel_of_the_annihilator(l):
    s = saturation(l)
    assert s == saturation_by_kernels(l)
    assert contains_lattice(s, l) and s.rank == l.rank
    # maximal: no vector outside s has a multiple in s
    assert quotient_group(Lattice.full(l.ambient_rank), s).torsion == ()


def test_quotient_group():
    amb = Lattice.full(2)
    sub = Lattice.from_columns(2, [(2, 0), (0, 3)])
    assert quotient_group(amb, sub) == FGAbelianGroup.cyclic(6)


def test_group_from_relations_mixed():
    rels = IntMatrix.from_columns([(2, 0, 0), (0, 4, 0)], 3)
    g = group_from_relations(3, rels)
    assert g == FGAbelianGroup(1, (2, 4))
    assert g.describe() == "Z + Z/2 + Z/4"


@st.composite
def relation_matrices(draw):
    """(rank, relations) whose echelon pivots are all 1, none 1, or include
    zero columns and dependent columns (no pivot at all)."""
    rank = draw(st.integers(0, 6))
    k = draw(st.integers(0, rank))
    entry = st.integers(-5, 5)
    kind = draw(st.sampled_from(["all-unit", "no-unit", "zero", "mixed"]))
    cols = [[draw(entry) for _ in range(rank)] for _ in range(k)]
    if kind == "all-unit":
        # [I; R]: unit pivots, then mixed by elementary column operations
        cols = [[int(i == j) if i < k else c[i] for i in range(rank)] for j, c in enumerate(cols)]
        for _ in range(draw(st.integers(0, 2 * k))):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            if i != j:
                q = draw(entry)
                cols[j] = [a + q * b for a, b in zip(cols[j], cols[i])]
    elif kind == "no-unit":
        cols = [[draw(st.sampled_from([2, 3, 4])) * a for a in c] for c in cols]
    elif kind == "zero":
        cols += [[0] * rank] * draw(st.integers(0, 2))
        cols += [[2 * a for a in c] for c in cols[:draw(st.integers(0, len(cols)))]]
    return rank, IntMatrix.from_columns(cols, rank)


@settings(max_examples=300, deadline=None)
@given(relation_matrices())
def test_quotient_from_the_non_unit_core_matches_the_full_smith_form(case):
    rank, relations = case
    assert group_from_relations(rank, relations) == group_by_smith(rank, relations)


def test_kernel_basis():
    m = IntMatrix.from_rows([[1, 2, 3]])
    k = kernel_basis(m)
    assert k.cols == 2
    for j in range(k.cols):
        assert m.mul_vector(k.column(j)) == (0,)


def test_coordinates_back_substitute_in_the_hnf_basis():
    lat = Lattice.from_columns(3, [(2, 1, 0), (0, 3, 3)])
    assert lat.coordinates((4, 5, 3)) == (2, 1)
    assert lat.coordinates((4, 5, 4)) is None      # off the rational span
    assert lat.coordinates((1, 0, 0)) is None      # on it, but not integral
    with pytest.raises(ValueError):
        lat.coordinates((1, 0))
    with pytest.raises(ValueError):
        Lattice(2, IntMatrix.from_rows([[0, 1], [1, 0]])).coordinates((1, 1))


@pytest.mark.parametrize("bad", [0.5, 2.9, 1.0, True])
def test_lattice_refuses_entries_that_are_not_integers(bad):
    # int() would truncate a float and read a bool as 0 or 1
    with pytest.raises(ValueError, match=f"not {bad!r}"):
        Lattice.full(2).contains((bad, 0))
    with pytest.raises(ValueError, match=f"not {bad!r}"):
        Lattice.from_columns(1, [(2,)]).coordinates((bad,))


@pytest.mark.parametrize("build,bad", [
    (lambda: IntMatrix.from_rows([[1.5]]), 1.5),
    (lambda: IntMatrix.from_columns([[True]], 1), True),
    (lambda: IntMatrix.from_rows([["2"]]), "2"),
])
def test_matrices_refuse_entries_that_are_not_integers(build, bad):
    # int() read these as 1, 1 and 2
    with pytest.raises(ValueError, match=f"not {bad!r}"):
        build()


@pytest.mark.parametrize("bad", [0.5, 2.5, 2.0, True])
def test_congruences_refuse_entries_and_moduli_that_are_not_integers(bad):
    with pytest.raises(ValueError, match=f"not {bad!r}"):
        solve_congruence_sublattice(1, [((1,), bad)])
    with pytest.raises(ValueError, match=f"not {bad!r}"):
        solve_congruence_sublattice(2, [((bad, 1), 2)])


@pytest.mark.parametrize("build,bad", [
    (lambda: FGAbelianGroup.cyclic(2.5), 2.5),
    (lambda: FGAbelianGroup(1.5, ()), 1.5),
    (lambda: FGAbelianGroup(True, ()), True),
    (lambda: FGAbelianGroup(-1, ()), -1),
    (lambda: FGAbelianGroup(0, (2.0,)), 2.0),     # it described itself as Z/2.0
])
def test_abelian_groups_refuse_ranks_and_orders_that_are_not_valid_ints(build, bad):
    # the free rank is an int >= 0 and each invariant factor an int >= 2,
    # exactly int: a bool or a float is refused, not compared
    with pytest.raises(ValueError, match=f"not {bad!r}$"):
        build()


@pytest.mark.parametrize("rank", [1, 3])
def test_canonical_generators_refuse_relations_of_another_rank(rank):
    # diag(2, 3) has two rows: rank 1 once read as the trivial group, and
    # rank 3 raised IndexError
    with pytest.raises(ValueError, match="relation matrix has wrong number of rows"):
        canonical_generators(rank, IntMatrix.from_rows([[2, 0], [0, 3]]))


def test_solve_and_rational_helpers():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(m, (4, 9)) == (2, 3)
    assert solve(m, (1, 0)) is None
    assert rational_coordinates(m, IntMatrix.identity(2)) == (
        IntMatrix.from_rows([[3, 0], [0, 2]]), 6)
    x = rational_solve(IntMatrix.from_rows([[2], [4]]), (3, 6))
    assert x[0] * 2 == 3
