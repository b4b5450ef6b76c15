"""Property tests for the shared lattice helpers: canonicalization of cyclic
orders, the inverse row transform of the Smith form, the canonical generator
choice of a presented group, rational coordinates over one common
denominator, and the echelon kernels, congruence lattices and lattice
coordinates checked against their Smith-form references, the quotients
by a relation lattice checked against the raw-relation-matrix algorithms they
replaced, and empty shapes checked against the branches that once handled
them apart; the congruence solver on a basis of its functionals, the Sym^2
values, congruence cuts and invariance rows, and the matrix products built
from nonzero terms checked against the unreduced and dense constructions they
replaced; the D(G)-simply-connected flag of the cross diagram against
the torsion of pi_1(G); and the frozen records of ``bunpic.record`` against
``dataclasses`` twins of the library's classes."""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bunpic.exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    _canonical_from_factors,
    _echelon,
    canonical_generators,
    group_from_relations,
    hermite_normal_form,
    hom_cokernel,
    kernel_basis,
    preimage_lattice,
    quotient_group,
    rational_coordinates,
    smith_normal_form,
    solve_congruence_sublattice,
    subgroup_generators,
)
from bunpic.family import CurveFamily, family_from_preset
from bunpic.gerbe import _ev_hat_data
from bunpic.invariant_forms import (
    FormLattice,
    _congruence_cut,
    _sc_evaluation,
    conditional_form_lattice,
    invariant_sym_forms,
    ns_bun,
    ns_bun_p1,
    sym2_dim,
    sym2_pairs,
)
from bunpic.picard import reductive_picard
from bunpic.record import MISSING, asdict, fields, replace
from bunpic.root_datum import (
    GroupFactor,
    GroupSpec,
    InputError,
    Pi1Element,
    Pi1Presentation,
    build_group,
    cross_diagram,
    fundamental_group,
    json_field,
    pi1_presentation,
)
from reference import (
    contains_lattice,
    det,
    intersection,
    invariant_coord_columns,
    mod_delta_cokernel,
    rational_solve,
    solve,
)
from test_invariant_forms import SMALL_FACTORS
from test_root_datum import NAMED

SETTINGS = settings(max_examples=150, deadline=None)


def primary_reference(free_rank, orders):
    """Invariant factors by primary decomposition: factor every order by trial
    division, then multiply the i-th largest prime powers of each prime."""
    powers = {}
    for d in orders:
        d = abs(d)
        if d == 0:
            free_rank += 1
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    chain = []
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            if i == len(chain):
                chain.append(1)
            chain[i] *= q
    return FGAbelianGroup(free_rank, tuple(sorted(chain)))


orders = st.lists(st.integers(min_value=-60, max_value=60), max_size=8)


@SETTINGS
@given(st.integers(min_value=0, max_value=3), orders)
def test_canonical_from_factors_matches_primary_decomposition(free_rank, factors):
    assert _canonical_from_factors(free_rank, factors) == primary_reference(free_rank, factors)


@SETTINGS
@given(orders)
def test_direct_sum_matches_primary_decomposition(factors):
    parts = [FGAbelianGroup.cyclic(d) for d in factors]
    assert FGAbelianGroup.direct_sum(*parts) == primary_reference(0, factors)


def test_direct_sum_large_prime_needs_no_factoring():
    p = 2 ** 61 - 1
    g = FGAbelianGroup.direct_sum(FGAbelianGroup.cyclic(p), FGAbelianGroup.cyclic(2 * p))
    assert g == FGAbelianGroup(0, (p, 2 * p))


@st.composite
def unimodular_matrices(draw, size=st.integers(min_value=0, max_value=5)):
    """Products of elementary matrices: row additions, swaps and negations."""
    n = draw(size)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n:
        index = st.integers(min_value=0, max_value=n - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            i, j = draw(index), draw(index)
            op = draw(st.sampled_from(("add", "swap", "neg")))
            if op == "add" and i != j:
                k = draw(st.integers(min_value=-5, max_value=5))
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            elif op == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif op == "neg":
                rows[i] = [-a for a in rows[i]]
    return IntMatrix(n, n, tuple(tuple(r) for r in rows))


@st.composite
def relation_matrices(draw):
    rank = draw(st.integers(min_value=0, max_value=4))
    ncols = draw(st.integers(min_value=0, max_value=4))
    entry = st.integers(min_value=-6, max_value=6)
    cols = [tuple(draw(entry) for _ in range(rank)) for _ in range(ncols)]
    return rank, (IntMatrix.from_columns(cols, rank) if cols else IntMatrix.zero(rank, 0))


def congruent(x, y, order):
    return (x - y) % order == 0 if order else x == y


@SETTINGS
@given(relation_matrices())
def test_canonical_generators_present_the_canonical_group(rank_rel):
    rank, rel = rank_rel
    group, gens, proj, orders = canonical_generators(rank, rel)
    assert group == group_from_relations(rank, rel)
    assert orders == (0,) * group.free_rank + group.torsion
    assert (gens.rows, gens.cols, proj.rows, proj.cols) == (rank, group.ngens, group.ngens, rank)
    # proj * gens is the identity modulo the generator orders ...
    pg = proj.mul(gens)
    for i, order in enumerate(orders):
        for j in range(group.ngens):
            assert congruent(pg[i, j], int(i == j), order)
    # ... and proj kills every relation, so it is well defined on the group
    for c in rel.columns():
        image = proj.mul_vector(c)
        assert all(congruent(x, 0, order) for x, order in zip(image, orders))


@st.composite
def square_systems(draw):
    """A square integer matrix m and a right-hand side b with 0-3 columns."""
    n = draw(st.integers(min_value=0, max_value=5))
    k = draw(st.integers(min_value=0, max_value=3))
    entry = st.integers(min_value=-9, max_value=9)
    m = IntMatrix(n, n, tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))
    b = IntMatrix(n, k, tuple(tuple(draw(entry) for _ in range(k)) for _ in range(n)))
    return m, b


@SETTINGS
@given(square_systems())
def test_rational_coordinates_are_least_numerators_of_the_solution(system):
    m, b = system
    assume(det(m) != 0)
    x, d = rational_coordinates(m, b)
    assert d >= 1 and (x.rows, x.cols) == (b.rows, b.cols)
    assert m.mul(x) == IntMatrix(b.rows, b.cols, tuple(tuple(d * a for a in row)
                                                       for row in b.entries))
    assert gcd(d, *(a for row in x.entries for a in row)) == 1
    for xj, bj in zip(x.columns(), b.columns()):
        assert tuple(Fraction(a, d) for a in xj) == rational_solve(m, bj)


@SETTINGS
@given(square_systems().filter(lambda mb: mb[0].rows > 0), st.integers(-3, 3))
def test_rational_coordinates_reject_a_singular_matrix(system, k):
    m, b = system
    # last row = k * first row (a zero row when m has one row)
    rows = list(m.entries[:-1]) + [tuple(k * a if m.rows > 1 else 0 for a in m.row(0))]
    singular = IntMatrix(m.rows, m.cols, tuple(rows))
    assert det(singular) == 0
    with pytest.raises(ValueError):
        rational_coordinates(singular, b)


# ---------------------------------------------------------------------------
# echelon kernels, congruence lattices and coordinates against the Smith form


def snf_kernel_basis(m):
    """Reference kernel: the columns of the Smith transform ``v`` beyond the
    rank, put in HNF."""
    s, _, v, _ = smith_normal_form(m)
    rank = sum(1 for i in range(min(s.rows, s.cols)) if s[i, i] != 0)
    return Lattice.from_columns(m.cols, [v.column(j) for j in range(rank, m.cols)]).basis


def snf_congruence_sublattice(ambient_rank, conditions):
    """Reference congruence lattice: the first ``ambient_rank`` coordinates
    of the reference kernel of ``[F | -diag(m)]``."""
    if not conditions:
        return Lattice.full(ambient_rank)
    k = len(conditions)
    rows = [tuple(f) + tuple(-m if j == i else 0 for j in range(k))
            for i, (f, m) in enumerate(conditions)]
    ker = snf_kernel_basis(IntMatrix.from_rows(rows))
    return Lattice.from_columns(ambient_rank, [c[:ambient_rank] for c in ker.columns()])


@st.composite
def integer_matrices(draw):
    """Matrices up to 5 x 6, 0 x n included; some of rank below their size
    (a product through k < min(rows, cols) dimensions), some with zeroed
    rows and columns."""
    nr = draw(st.integers(min_value=0, max_value=5))
    nc = draw(st.integers(min_value=0, max_value=6))
    entry = st.integers(min_value=-6, max_value=6)
    rows = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=max(min(nr, nc) - 1, 0)))
        a = [[draw(entry) for _ in range(k)] for _ in range(nr)]
        b = [[draw(entry) for _ in range(nc)] for _ in range(k)]
        rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
    zero_rows = draw(st.lists(st.booleans(), min_size=nr, max_size=nr))
    zero_cols = draw(st.lists(st.booleans(), min_size=nc, max_size=nc))
    rows = [[0 if zr or zero_cols[j] else a for j, a in enumerate(row)]
            for zr, row in zip(zero_rows, rows)]
    return IntMatrix(nr, nc, tuple(tuple(r) for r in rows))


@SETTINGS
@given(integer_matrices())
def test_kernel_basis_matches_the_smith_reference(m):
    k = kernel_basis(m)
    assert k == snf_kernel_basis(m)
    assert m.mul(k) == IntMatrix.zero(m.rows, k.cols)


@SETTINGS
@given(integer_matrices())
def test_hermite_transform_is_unimodular(m):
    h, u = hermite_normal_form(m)
    assert h == m.mul(u)
    assert abs(det(u)) == 1


@SETTINGS
@given(st.one_of(unimodular_matrices(), integer_matrices(),
                 st.builds(IntMatrix.zero, st.integers(min_value=0, max_value=4),
                           st.integers(min_value=0, max_value=4))))
def test_smith_form_carries_the_inverse_row_transform(m):
    # unimodular, zero, empty and non-square matrices alike
    s, u, v, w = smith_normal_form(m)
    assert u.mul(m).mul(v) == s
    assert u.mul(w) == IntMatrix.identity(m.rows)
    assert w.mul(u) == IntMatrix.identity(m.rows)


@st.composite
def congruence_conditions(draw):
    """Up to four (functional, modulus) pairs, moduli 0 and 1 included."""
    n = draw(st.integers(min_value=0, max_value=4))
    entry = st.integers(min_value=-6, max_value=6)
    modulus = st.integers(min_value=0, max_value=6)
    conditions = [(tuple(draw(entry) for _ in range(n)), draw(modulus))
                  for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    return n, conditions


@SETTINGS
@given(congruence_conditions())
def test_congruence_sublattice_matches_the_kernel_reference(n_conditions):
    n, conditions = n_conditions
    lat = solve_congruence_sublattice(n, conditions)
    assert lat == snf_congruence_sublattice(n, conditions)
    for c in lat.basis.columns():
        for f, m in conditions:
            value = sum(a * b for a, b in zip(f, c))
            assert congruent(value, 0, m)


@st.composite
def lattices_and_vectors(draw):
    """A lattice from random generators, optionally under zero leading rows
    (as the rigidified NS members are), with members and random vectors."""
    n = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=-6, max_value=6)
    ngens = draw(st.integers(min_value=0, max_value=5))
    gens = [tuple(draw(entry) for _ in range(n)) for _ in range(ngens)]
    basis = Lattice.from_columns(n, gens).basis
    pad = draw(st.integers(min_value=0, max_value=2))
    basis = IntMatrix(n + pad, basis.cols, ((0,) * basis.cols,) * pad + basis.entries)
    lat = Lattice(n + pad, basis)
    vectors = [basis.mul_vector(tuple(draw(entry) for _ in range(basis.cols)))
               for _ in range(3)]
    vectors += [tuple(draw(entry) for _ in range(n + pad)) for _ in range(3)]
    return lat, vectors


@SETTINGS
@given(lattices_and_vectors())
def test_coordinates_match_the_smith_solve(lat_vectors):
    lat, vectors = lat_vectors
    for v in vectors:
        x = lat.coordinates(v)
        assert x == solve(lat.basis, v)
        assert lat.contains(v) == (x is not None)
        if x is not None:
            assert lat.basis.mul_vector(x) == tuple(v)


@st.composite
def relations_with_basis_changes(draw):
    """A relation matrix with unimodular changes of basis of its columns
    (the generators) and of the ambient."""
    rank, rel = draw(relation_matrices())
    return rank, rel, draw(unimodular_matrices(st.just(rel.cols))), \
        draw(unimodular_matrices(st.just(rank)))


@SETTINGS
@given(relations_with_basis_changes())
def test_normal_forms_are_canonical_under_a_change_of_basis(data):
    rank, rel, u, v = data
    moved = rel.mul(u)
    assert Lattice.from_columns(rank, moved.columns()) == Lattice.from_columns(rank, rel.columns())
    assert group_from_relations(rank, moved) == group_from_relations(rank, rel)
    assert group_from_relations(rank, v.mul(moved)) == group_from_relations(rank, rel)


# ---------------------------------------------------------------------------
# quotients by a relation lattice against the raw-relation-matrix references


def reference_preimage_lattice(m, relations):
    """{v : m*v in the span of the relation columns}, with the empty relation
    matrix handled on its own path."""
    if relations.cols == 0:
        return Lattice.from_columns(m.cols, kernel_basis(m).columns())
    ker = kernel_basis(m.hstack(relations.neg()))
    return Lattice.from_columns(m.cols, [ker.column(j)[: m.cols] for j in range(ker.cols)])


def reference_hom_cokernel(m, relations):
    return group_from_relations(relations.rows, m.hstack(relations))


def reference_subgroup(relations, generator_cols):
    """The subgroup of Z^rank / relations generated by the given columns:
    its embedding (the HNF basis of generators + relations) and its own
    relation matrix, the relations' coordinates in that basis."""
    rank = relations.rows
    embed = Lattice.from_columns(rank, list(generator_cols) + relations.columns()).basis
    sub = Lattice(rank, embed)
    rel_cols = []
    for c in relations.columns():
        x = sub.coordinates(c)
        if x is None:
            raise ArithmeticError("relations must lie in the subgroup")
        rel_cols.append(x)
    return IntMatrix.from_columns(rel_cols, embed.cols), embed


def reference_subgroup_cokernel(members, relations, sub):
    """(subgroup spanned by the member columns, modulo the relations) divided
    by the lattice sub, in coordinates on the members."""
    lat = Lattice(members.rows, members)
    cols = []
    for c in sub.basis.columns():
        x = lat.coordinates(c)
        if x is None:
            raise ArithmeticError("image is not inside the NS group")
        cols.append(x)
    cols += [x for x in map(lat.coordinates, relations.columns()) if x is not None]
    return group_from_relations(members.cols, IntMatrix.from_columns(cols, members.cols))


@st.composite
def maps_into_quotients(draw):
    """A map m into Z^rank, a relation matrix R and a unimodular change of
    basis of R's columns."""
    rank, rel = draw(relation_matrices())
    k = draw(st.integers(min_value=0, max_value=4))
    entry = st.integers(min_value=-6, max_value=6)
    m = IntMatrix(rank, k, tuple(tuple(draw(entry) for _ in range(k)) for _ in range(rank)))
    return m, rel, draw(unimodular_matrices(st.just(rel.cols)))


@SETTINGS
@given(maps_into_quotients())
def test_quotient_maps_read_only_the_span_of_the_relations(data):
    m, rel, u = data
    rank = rel.rows
    expected = reference_preimage_lattice(m, rel), reference_hom_cokernel(m, rel)
    # R as its raw generators, as their HNF basis, and as a unimodular mix of them
    for r in (Lattice(rank, rel), Lattice.from_columns(rank, rel.columns()),
              Lattice(rank, rel.mul(u))):
        assert (preimage_lattice(m, r), hom_cokernel(m, r)) == expected
    # R = 0, spanned by no column or by zero columns
    zero = IntMatrix.zero(rank, 0)
    expected = reference_preimage_lattice(m, zero), reference_hom_cokernel(m, zero)
    for r in (Lattice(rank, zero), Lattice(rank, IntMatrix.zero(rank, 2))):
        assert (preimage_lattice(m, r), hom_cokernel(m, r)) == expected


@st.composite
def subgroups_of_quotients(draw):
    """A relation matrix and up to four coset representatives."""
    rank, rel = draw(relation_matrices())
    entry = st.integers(min_value=-6, max_value=6)
    gens = [tuple(draw(entry) for _ in range(rank))
            for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    return rel, gens


@SETTINGS
@given(subgroups_of_quotients())
def test_subgroup_generators_match_the_reference_presentation(data):
    rel, generator_cols = data
    sub_rel, embed = reference_subgroup(rel, generator_cols)
    ref_group, canonical, _, _ = canonical_generators(embed.cols, sub_rel)
    group, key, gens = subgroup_generators(rel.rows, generator_cols, rel)
    assert (group, key) == (ref_group, embed)
    assert gens.columns() == [embed.mul_vector(c) for c in canonical.columns()]
    assert (gens.rows, gens.cols) == (rel.rows, group.ngens)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(SMALL_FACTORS), min_size=1, max_size=3),
       st.sampled_from([("universal", 2, 1), ("universal", 3, 0), ("universal", 1, 1),
                        ("genus0_nontrivial",)]),
       st.data())
def test_ns_images_contain_every_relation(factors, preset, data):
    g = build_group("*".join(factors))
    ngens = len(Pi1Element.zero(g).coords)
    delta = Pi1Element.from_coords(
        g, data.draw(st.lists(st.integers(0, 3), min_size=ngens, max_size=ngens)))
    family = family_from_preset(*preset)
    ns = ns_bun(g, delta) if family.genus > 0 else ns_bun_p1(g, delta)
    image = reductive_picard(g, delta, family).image_lattice
    assert all(image.contains(c) for c in ns.relations.columns())
    members = Lattice(ns.key.rows, ns.key)
    assert contains_lattice(members, image)
    assert (quotient_group(members, image)
            == reference_subgroup_cokernel(ns.key, ns.relations, image))


# ---------------------------------------------------------------------------
# empty shapes (0 x n, n x 0, 0 x 0) take the general algorithms; the branches
# that once handled them apart are kept here as references

EMPTY_SHAPES = [(0, 3), (3, 0), (0, 0)]
SIZES = [0, 1, 3]


@pytest.mark.parametrize("n", SIZES)
def test_from_rows_takes_the_column_count(n):
    m = IntMatrix.from_rows([], n)
    assert (m.rows, m.cols) == (0, n)
    assert m == IntMatrix.zero(0, n)


@pytest.mark.parametrize("nr,nc", EMPTY_SHAPES)
def test_smith_form_of_an_empty_matrix(nr, nc):
    # reference: a zero s and identity transforms
    assert (smith_normal_form(IntMatrix.zero(nr, nc))
            == (IntMatrix.zero(nr, nc), IntMatrix.identity(nr), IntMatrix.identity(nc),
                IntMatrix.identity(nr)))


@pytest.mark.parametrize("n", SIZES)
def test_no_relations_present_the_free_group(n):
    no_relations = IntMatrix.zero(n, 0)
    assert group_from_relations(n, no_relations) == FGAbelianGroup.free(n)
    # reference: identity generators and an identity projection
    assert canonical_generators(n, no_relations) == (
        FGAbelianGroup.free(n), IntMatrix.identity(n), IntMatrix.identity(n), (0,) * n)


@pytest.mark.parametrize("n", SIZES)
def test_no_or_vacuous_conditions_give_the_full_lattice(n):
    assert solve_congruence_sublattice(n, []) == Lattice.full(n)
    vacuous = [(tuple(range(i, i + n)), 1) for i in range(3)]
    assert solve_congruence_sublattice(n, vacuous) == Lattice.full(n)


@pytest.mark.parametrize("n", SIZES)
def test_intersection_with_a_rank_zero_lattice(n):
    zero = Lattice.from_columns(n, [])
    for other in (zero, Lattice.full(n), Lattice.from_columns(n, [tuple(range(1, n + 1))])):
        assert intersection(other, zero) == zero
        assert intersection(zero, other) == zero
    with pytest.raises(ValueError):
        intersection(zero, Lattice.full(n + 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_torus_shapes_take_the_general_path(k):
    t = build_group(f"T({k})")
    cd = cross_diagram(t)
    assert (cd.ab_projection, cd.ab_section) == (IntMatrix.identity(k), IntMatrix.identity(k))
    # invariant forms: every form, as the Weyl kernel of no reflection
    assert invariant_sym_forms(t).coords == IntMatrix.identity(sym2_dim(k))
    assert invariant_coord_columns(k, []) == IntMatrix.identity(sym2_dim(k)).columns()
    no_forms = FormLattice(k, IntMatrix.zero(sym2_dim(k), 0))
    assert _congruence_cut(no_forms, ((((1,) * k, (1,) * k), 2),)) == no_forms
    forms = invariant_sym_forms(t)
    assert forms.values([]) == IntMatrix.zero(0, forms.rank)
    assert conditional_form_lattice(t) == FormLattice(0, IntMatrix.zero(0, 0))
    # the genus-0 evaluation is an empty matrix, with a trivial cokernel
    _, (vals, _) = _sc_evaluation(t, (1,) * k)
    assert vals == IntMatrix.zero(0, 0)
    assert _ev_hat_data(t, (1,) * k) == FGAbelianGroup.trivial()
    # every pair (chi, b) is an NS Bun(P^1) member
    ns = ns_bun_p1(t, Pi1Element.from_coords(t, (1,) * k))
    assert ns.certificates == IntMatrix.identity(k + ns.form_basis.rank)


@SETTINGS
@given(integer_matrices(), st.integers(min_value=0, max_value=4))
def test_mod_delta_groups_match_the_reference(m, delta_cs):
    # weight_cokernel's sub piece: hom_cokernel over the lattice delta * Z^rows
    # (the zero lattice for delta = 0) against the relations [m | delta I]
    delta_lattice = Lattice.from_columns(
        m.rows, [[delta_cs * (i == j) for i in range(m.rows)] for j in range(m.rows)])
    assert hom_cokernel(m, delta_lattice) == mod_delta_cokernel(m, delta_cs)


# ---------------------------------------------------------------------------
# congruences on a basis of their functionals, against the unreduced system


def unreduced_congruence_sublattice(ambient_rank, conditions):
    """Reference: the echelon of ``[[F, -diag(m)], [I, 0]]`` over every raw
    condition, none dropped or reduced; the columns whose top ``k`` rows it
    clears carry the lattice's HNF basis below them."""
    k = len(conditions)
    unit = IntMatrix.identity(ambient_rank).entries
    cols = [tuple(f[j] for f, _ in conditions) + unit[j] for j in range(ambient_rank)]
    cols += [tuple(-m if i == j else 0 for i in range(k)) + (0,) * ambient_rank
             for j, (_, m) in enumerate(conditions)]
    lower = [c[k:] for c in _echelon(cols, k + ambient_rank) if not any(c[:k])]
    return Lattice(ambient_rank, IntMatrix.from_columns(lower, ambient_rank))


@st.composite
def redundant_congruences(draw):
    """Ambient rank 0-6 and 0-14 conditions, often more than the rank: some
    functionals repeat earlier ones, scaled, under the same or another
    modulus; moduli 0 and 1 included, mixed within one system."""
    n = draw(st.integers(min_value=0, max_value=6))
    entry = st.integers(min_value=-5, max_value=5)
    modulus = st.sampled_from([0, 1, 2, 3, 4, 6, 12])
    conditions = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        if conditions and draw(st.booleans()):
            f, m = draw(st.sampled_from(conditions))
            c = draw(st.integers(min_value=-3, max_value=3))
            conditions.append((tuple(c * a for a in f), draw(st.sampled_from([m, draw(modulus)]))))
        else:
            conditions.append((tuple(draw(entry) for _ in range(n)), draw(modulus)))
    return n, conditions


@SETTINGS
@given(redundant_congruences())
def test_congruences_on_a_functional_basis_match_the_unreduced_system(n_conditions):
    n, conditions = n_conditions
    assert (solve_congruence_sublattice(n, conditions)
            == unreduced_congruence_sublattice(n, conditions))


# ---------------------------------------------------------------------------
# Sym^2 values and invariance rows from nonzero terms, against dense rows


def dense_value_functional(n, u, w=None):
    """Reference: the functional b -> b(u, w) written at every pair i <= j."""
    w = u if w is None else w
    return tuple(u[i] * w[i] if i == j else u[i] * w[j] + u[j] * w[i]
                 for i, j in sym2_pairs(n))


def dense_values(fl, pairs):
    """Reference: one dense functional per pair times the coordinate matrix."""
    n = fl.ambient_rank
    return dense_mul(IntMatrix.from_rows([dense_value_functional(n, u, w) for u, w in pairs],
                                         sym2_dim(n)), fl.coords)


def dense_invariant_coord_columns(n, roots):
    """Reference: the rows 2 b(a^vee, e_k) - a_k b(a^vee, a^vee) from dense
    functionals."""
    units = IntMatrix.identity(n).columns()
    rows = []
    for coroot, root in roots:
        norm = dense_value_functional(n, coroot)
        for e_k, a_k in zip(units, root):
            rows.append(tuple(2 * x - a_k * y
                              for x, y in zip(dense_value_functional(n, coroot, e_k), norm)))
    return kernel_basis(IntMatrix.from_rows(rows, sym2_dim(n))).columns()


@st.composite
def sparse_vectors(draw, n):
    """Vectors of length n, often zero or with few nonzero entries."""
    kind = draw(st.sampled_from(["zero", "unit", "sparse", "dense"]))
    if kind == "zero" or n == 0:
        return (0,) * n
    if kind == "unit":
        i = draw(st.integers(min_value=0, max_value=n - 1))
        return tuple(int(k == i) for k in range(n))
    entry = st.integers(min_value=-4, max_value=4)
    return tuple(draw(entry) if kind == "dense" or draw(st.booleans()) else 0
                 for _ in range(n))


@SETTINGS
@given(st.data())
def test_values_from_nonzero_terms_match_the_dense_rows(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=-4, max_value=4)
    cols = [tuple(data.draw(entry) for _ in range(sym2_dim(n)))
            for _ in range(data.draw(st.integers(min_value=0, max_value=4)))]
    fl = FormLattice.from_coord_columns(n, cols)
    pairs = [(data.draw(sparse_vectors(n)), data.draw(sparse_vectors(n)))
             for _ in range(data.draw(st.integers(min_value=0, max_value=5)))]
    assert fl.values(pairs) == dense_values(fl, pairs)


def dense_congruence_cut(fl, conditions):
    """Reference: the congruences on dense Sym^2 functionals times the
    coordinate matrix, one functional per condition ((u, w), m)."""
    n = fl.ambient_rank
    funcs = IntMatrix.from_rows([dense_value_functional(n, u, w) for (u, w), _ in conditions],
                                sym2_dim(n))
    comp = zip(dense_mul(funcs, fl.coords).entries, (mod for _, mod in conditions))
    cut = solve_congruence_sublattice(fl.rank, comp)
    return FormLattice.from_coord_columns(n, dense_mul(fl.coords, cut.basis).columns())


@SETTINGS
@given(st.data())
def test_congruence_cut_on_pairs_matches_the_cut_on_dense_functionals(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=-4, max_value=4)
    cols = [tuple(data.draw(entry) for _ in range(sym2_dim(n)))
            for _ in range(data.draw(st.integers(min_value=0, max_value=4)))]
    fl = FormLattice.from_coord_columns(n, cols)
    conditions = tuple(((data.draw(sparse_vectors(n)), data.draw(sparse_vectors(n))),
                        data.draw(st.sampled_from([0, 1, 2, 3])))
                       for _ in range(data.draw(st.integers(min_value=0, max_value=5))))
    assert _congruence_cut(fl, conditions) == dense_congruence_cut(fl, conditions)


@SETTINGS
@given(st.data())
def test_invariance_rows_from_nonzero_terms_match_the_dense_rows(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    roots = [(data.draw(sparse_vectors(n)), data.draw(sparse_vectors(n)))
             for _ in range(data.draw(st.integers(min_value=0, max_value=4)))]
    assert invariant_coord_columns(n, roots) == dense_invariant_coord_columns(n, roots)


# ---------------------------------------------------------------------------
# the cross diagram's D(G)-simply-connected flag, against pi_1(G)


@pytest.mark.parametrize("name", NAMED + ["SO(10)*PGL(4)", "SL(2)*PGL(3)*T(1)", "PSp(4)*Spin(7)"])
def test_derived_simply_connected_iff_pi1_is_torsion_free(name):
    # Lambda(T_D(G)) / coroot lattice is the torsion of pi_1(G)
    g = build_group(name)
    assert cross_diagram(g).derived_simply_connected == (not fundamental_group(g).torsion)


# ---------------------------------------------------------------------------
# matrix products from nonzero terms, against the dense products


def dense_mul(a, b):
    """Reference: entry (i, j) is the full dot product of row i of ``a`` and
    column j of ``b``."""
    return IntMatrix(a.rows, b.cols, tuple(tuple(sum(x * y for x, y in zip(r, b.column(j)))
                                                 for j in range(b.cols)) for r in a.entries))


def dense_mul_vector(a, v):
    """Reference: each entry the full dot product of a row with ``v``."""
    return tuple(sum(x * y for x, y in zip(r, v)) for r in a.entries)


BIG = 2 ** 60


@st.composite
def product_factors(draw):
    """``(a, b, v)`` with ``a`` r x k, ``b`` k x c and ``v`` of length k, any
    dimension 0 included; entries are often 0 or near +-2^60, and some rows of
    ``a`` and ``b``, columns of ``a`` and entries of ``v`` are set to zero."""
    r, k, c = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                      st.integers(min_value=BIG - 3, max_value=BIG + 3),
                      st.integers(min_value=-BIG - 3, max_value=-BIG + 3))

    def matrix(nr, nc):
        zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max(nr - 1, 0))))
        zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(nc - 1, 0))))
        return IntMatrix(nr, nc, tuple(
            tuple(0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(nc))
            for i in range(nr)))

    a, b = matrix(r, k), matrix(k, c)
    [v] = matrix(1, k).entries
    return a, b, v


@SETTINGS
@given(product_factors())
def test_products_from_nonzero_terms_match_the_dense_products(factors):
    a, b, v = factors
    assert a.mul(b) == dense_mul(a, b)
    assert a.mul_vector(v) == dense_mul_vector(a, v)
    assert b.transpose().mul(a.transpose()) == dense_mul(a, b).transpose()


@pytest.mark.parametrize("r,k,c", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)])
def test_products_of_empty_shapes(r, k, c):
    # reference: a product over an empty side is the r x c zero matrix
    a = IntMatrix(r, k, tuple((BIG,) * k for _ in range(r)))
    b = IntMatrix(k, c, tuple((-BIG,) * c for _ in range(k)))
    assert a.mul(b) == IntMatrix.zero(r, c) == dense_mul(a, b)
    assert a.mul_vector((BIG,) * k) == dense_mul_vector(a, (BIG,) * k)
    with pytest.raises(ValueError):
        a.mul(IntMatrix.zero(k + 1, c))
    with pytest.raises(ValueError):
        a.mul_vector((0,) * (k + 1))


# ---------------------------------------------------------------------------
# bunpic.record against dataclasses twins


def twin(cls, *specs):
    """A frozen dataclass with the name and ``__post_init__`` of ``cls`` and the
    field specs of ``dataclasses.make_dataclass``."""
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


CURVE_FAMILY_TWIN = twin(CurveFamily, ("genus", int), ("delta", int),
                         *((flag, bool, False) for flag in (
                             "has_section", "zariski_locally_trivial", "end_jacobian_trivial",
                             "rpic_surjective", "rpic0_torsion_free")),
                         ("label", str, ""))
GL2, T2 = build_group("GL(2)"), build_group("T(2)")
P_GL2, P_T2 = pi1_presentation(GL2), pi1_presentation(T2)
RECORD_TWINS = [
    (IntMatrix, twin(IntMatrix, "rows", "cols", "entries"),
     [(1, 2, ((1, 2),)), (1, 2, ((1, 3),)), (2, 1, ((1,), (2,))), (0, 0, ())]),
    (CurveFamily, CURVE_FAMILY_TWIN,
     [(2, 1), (2, 1, True), (2, 1, False), (3, 2, False, False, True, False, True, "x")]),
    (Pi1Element, twin(Pi1Element, "group", "coords"),
     [(GL2, (1,)), (GL2, (2,)), (T2, (1, 0))]),
    (Pi1Presentation, twin(Pi1Presentation, "group", "gens", "proj", "orders"),
     [(P_GL2.group, P_GL2.gens, P_GL2.proj, P_GL2.orders),
      (P_GL2.group, P_GL2.gens, P_GL2.proj, (5,)),
      (P_T2.group, P_T2.gens, P_T2.proj, P_T2.orders)]),
    (GroupSpec, twin(GroupSpec, "factors"),
     [((GroupFactor("GL", 2),),), ((GroupFactor("GL", 3),),), ((),)]),
]


@pytest.mark.parametrize("cls,twin_cls,samples", RECORD_TWINS,
                         ids=[cls.__name__ for cls, _, _ in RECORD_TWINS])
def test_records_behave_as_their_dataclass_twins(cls, twin_cls, samples):
    assert ([(f.name, f.default) for f in fields(cls)]
            == [(f.name, MISSING if f.default is dataclasses.MISSING else f.default)
                for f in dataclasses.fields(twin_cls)])
    for a in samples:
        rec, dc = cls(*a), twin_cls(*a)
        assert repr(rec) == repr(dc)
        assert hash(rec) == hash(dc)
        assert asdict(rec) == {f.name: getattr(dc, f.name) for f in dataclasses.fields(dc)}
        # a record equals no object of another class, and keeps a __dict__
        assert rec != dc and dc != rec and not rec == dc
        assert rec.__eq__(dc) is NotImplemented and hasattr(rec, "__dict__")
        for name in [f.name for f in fields(rec)] + ["other"]:
            for obj in (rec, dc):
                with pytest.raises(AttributeError) as assigned:
                    setattr(obj, name, 0)
                with pytest.raises(AttributeError) as deleted:
                    delattr(obj, name)
                assert (str(assigned.value), str(deleted.value)) == (
                    f"cannot assign to field {name!r}", f"cannot delete field {name!r}")
        for b in samples:
            assert (cls(*a) == cls(*b)) == (twin_cls(*a) == twin_cls(*b))
            assert (cls(*a) != cls(*b)) == (twin_cls(*a) != twin_cls(*b))


def test_replace_reruns_post_init():
    m = IntMatrix(1, 2, ((1, 2),))
    assert replace(m, entries=((3, 4),)) == IntMatrix(1, 2, ((3, 4),))
    with pytest.raises(ValueError, match="column count mismatch"):
        replace(m, cols=3)
    fam = family_from_preset("universal", 2, 1)
    assert asdict(replace(fam, genus=3, label="x")) == dataclasses.asdict(
        dataclasses.replace(CURVE_FAMILY_TWIN(**asdict(fam)), genus=3, label="x"))
    with pytest.raises(TypeError):
        replace(fam, genera=3)


def test_curve_family_fields_give_its_json_reader_types_and_defaults():
    assert ([(f.name, f.type, f.default) for f in fields(CurveFamily)]
            == [(f.name, f.type, MISSING if f.default is dataclasses.MISSING else f.default)
                for f in dataclasses.fields(CURVE_FAMILY_TWIN)])
    assert json_field.__defaults__ == (MISSING,)
    with pytest.raises(InputError, match="missing key 'genus'"):
        CurveFamily.from_json({"delta": 1})
    assert CurveFamily.from_json({"genus": 2, "delta": 1}) == CurveFamily(2, 1)
