"""Brute-force oracles for small groups: each form lattice and NS(Bun)
checked against its definition on a box of candidates.

The golden records and pinned digests pin bytes, and the property tests
compare one algorithm with another.  Here every symmetric integer matrix in
a box (entries in [-3, 3] up to rank 2, in [-2, 2] for rank 3) is decided by
its defining properties, computed from the Gram matrix alone: Weyl
invariance at the simple reflections (``reference.reflection``), evenness
from the diagonal, and evenness on the derived lattice Lambda(T_D(G)) = the
integer points of the rational span of the coroots, tested on the box points
that ``reference.rational_solve`` puts in that span.  The oracle uses no
``Lattice``, echelon or Smith form; the library's answer is read through
``reference.form_lattice(...).contains``.

NS(Bun^delta) membership of (chi, c), c the coefficients of b = sum c_k b_k
on the D-even basis forms, is decided from its definition: res(chi - b(d, -))
lies in the lattice of restricted roots.  The restricted roots are a rational
basis of Lambda^*(T_D), and the coroots one of Lambda(T_D), so that holds iff
the rational n with sum_j n_j <alpha_j, alpha_i^vee> = chi(alpha_i^vee) -
b(d, alpha_i^vee) for every i is integral (``reference.rational_solve``).
NS(rigidified) membership of c is the same test with chi = 0.

The conditional lattice is decided on the Gram matrices B on the basis D of
Lambda(T_D(G)) that the library writes it in: B is Weyl invariant at the
simple reflections, even, and B(e_k, y) is integral for the image y of each
basis vector of Lambda(T_G) in Lambda(T_Gss), whose coordinates on D solve
A^T D y = A^T e_j over Q (A the roots).  NS Bun(P^1) membership of (chi, c),
c on the sc basis forms, asks that l + b(d^ss, -) be integral for the class
l of chi modulo the roots: with d^ss solving C y = A^T d over Q (C the
Cartan matrix), the rational n with sum_j n_j <alpha_j, alpha_i^vee> =
b(alpha_i^vee, d^ss) - chi(alpha_i^vee) is integral.

One literature oracle goes through the gerbe engine: for GL(n) over a
family with delta(C/S) = 1, coker(wt) = Z/gcd(n, d) (Ramanan).
"""

from itertools import product
from math import gcd

import pytest

from bunpic.exact_algebra import FGAbelianGroup, IntMatrix, Lattice
from bunpic.family import family_from_preset
from bunpic.gerbe import weight_cokernel
from bunpic.invariant_forms import (
    conditional_form_lattice,
    d_even_forms,
    even_invariant_forms,
    invariant_sym_forms,
    ns_bun,
    ns_bun_p1,
    ns_rigidified,
    sc_even_forms,
    sym2_pairs,
)
from bunpic.root_datum import (
    Pi1Element,
    build_group,
    cross_diagram,
    fundamental_group,
    group_from_json,
    with_central_torus,
)
from reference import form_lattice, rational_solve, reflection
from test_invariant_forms import SMALL_FACTORS, _coroot_shifts

SMALL_PRODUCTS = ["T(1)*T(1)", "SL(2)*SL(2)", "SL(2)*PGL(2)",
                  "T(1)*PGL(2)*SL(2)", "SL(2)*GL(2)", "PGL(3)*T(1)"]


def gram_candidates(n):
    """Every symmetric n x n integer matrix with entries in the box."""
    bound = 3 if n <= 2 else 2
    pairs = sym2_pairs(n)
    for coords in product(range(-bound, bound + 1), repeat=len(pairs)):
        gram = [[0] * n for _ in range(n)]
        for (i, j), c in zip(pairs, coords):
            gram[i][j] = gram[j][i] = c
        yield coords, gram


def form(gram, u, w):
    return sum(a * gram[i][j] * b for i, a in enumerate(u) if a for j, b in enumerate(w) if b)


def is_weyl_invariant(gram, reflections):
    """b(s x, s y) = b(x, y) on the unit vectors, for every simple reflection."""
    n = len(gram)
    return all(form(gram, s[i], s[j]) == gram[i][j]
               for s in reflections for i in range(n) for j in range(i, n))


def derived_box_points(g):
    """The box points in the rational span of the simple coroots."""
    points = []
    for x in product(range(-2, 3), repeat=g.cochar_rank):
        try:
            rational_solve(g.simple_coroots, x)
        except ValueError:
            continue
        points.append(x)
    return points


def assert_form_lattices_match_the_oracle(g):
    n = g.cochar_rank
    # s as the images of the unit vectors (the columns of the reflection)
    reflections = [reflection(g, i).transpose().to_lists() for i in range(g.ss_rank)]
    derived = derived_box_points(g)
    invariant = form_lattice(invariant_sym_forms(g))
    even = form_lattice(even_invariant_forms(g))
    d_even = form_lattice(d_even_forms(g))
    for coords, gram in gram_candidates(n):
        inv = is_weyl_invariant(gram, reflections)
        is_even = inv and all(gram[i][i] % 2 == 0 for i in range(n))
        is_d_even = inv and all(form(gram, x, x) % 2 == 0 for x in derived)
        assert invariant.contains(coords) == inv, (g, gram)
        assert even.contains(coords) == is_even, (g, gram)
        assert d_even.contains(coords) == is_d_even, (g, gram)


@pytest.mark.parametrize("name", SMALL_FACTORS + SMALL_PRODUCTS)
def test_form_lattices_match_the_brute_force_oracle(name):
    g = build_group(name)
    assert g.cochar_rank <= 3
    assert_form_lattices_match_the_oracle(g)


def test_form_lattices_match_the_brute_force_oracle_central_torus():
    # (Sp(4) x T1)/Z: Lambda(T_D(G)) is the coroot lattice, on a basis in
    # which it is not a coordinate sublattice
    g, _ = with_central_torus(build_group("Sp(4)"))
    assert g.cochar_rank == 3
    assert_form_lattices_match_the_oracle(g)


def pi1_classes(g):
    """Every class of pi_1(G) with free coordinates in [-1, 1]."""
    pi1 = fundamental_group(g)
    ranges = [range(-1, 2)] * pi1.free_rank + [range(t) for t in pi1.torsion]
    for coords in product(*ranges):
        delta = Pi1Element.from_coords(g, coords)
        assert delta.coords == coords
        yield delta


def assert_ns_bun_matches_the_oracle(g):
    n = g.cochar_rank
    grams = [f.gram.to_lists() for f in d_even_forms(g).basis_forms]
    coroots = g.simple_coroots.columns()
    cartan_t = g.simple_coroots.transpose().mul(g.simple_roots)    # <alpha_j, alpha_i^vee>
    # [-2, 2] up to 4 ambient coordinates; beyond, [-1, 1] to stay under 5 s
    # (it meets every class mod 2 and mod 3, the moduli of those groups' conditions)
    bound = 2 if n + len(grams) <= 4 else 1
    chis = list(product(range(-bound, bound + 1), repeat=n))
    chi_at = {chi: tuple(sum(a * x for a, x in zip(chi, c)) for c in coroots) for chi in chis}
    integral = {}   # v -> whether the rational n solving the roots' system is integral
    for delta in pi1_classes(g):
        lifts = _coroot_shifts(g, delta.lift(), 3) if coroots else [delta.lift()]
        for d in lifts:
            key = ns_bun(g, delta, lift=d).key
            members = Lattice(key.rows, key)
            pair_d = [[form(gram, d, c) for c in coroots] for gram in grams]   # b_k(d, a_i^vee)
            for coeffs in product(range(-bound, bound + 1), repeat=len(grams)):
                b_at = [sum(c * p[i] for c, p in zip(coeffs, pair_d)) for i in range(len(coroots))]
                for chi in chis:
                    v = tuple(x - y for x, y in zip(chi_at[chi], b_at))
                    if v not in integral:
                        integral[v] = all(x.denominator == 1 for x in rational_solve(cartan_t, v))
                    assert members.contains(chi + coeffs) == integral[v], (g, delta, d, chi, coeffs)


@pytest.mark.parametrize("name", SMALL_FACTORS + SMALL_PRODUCTS)
def test_ns_bun_matches_the_brute_force_oracle(name):
    assert_ns_bun_matches_the_oracle(build_group(name))


def test_ns_bun_matches_the_brute_force_oracle_central_torus():
    g, _ = with_central_torus(build_group("Sp(4)"))
    assert_ns_bun_matches_the_oracle(g)


def assert_conditional_lattice_matches_the_oracle(g):
    n, m = g.cochar_rank, g.ss_rank
    d_basis = cross_diagram(g).derived_lattice.basis
    assert d_basis.cols == m
    # D is a basis of Lambda(T_D(G)): the box points there have integral coordinates
    for x in derived_box_points(g):
        assert all(a.denominator == 1 for a in rational_solve(d_basis, x)), (g, x)
    coroots = [tuple(int(a) for a in rational_solve(d_basis, c))
               for c in g.simple_coroots.columns()]
    rt = g.simple_roots.transpose()
    a_d = rt.mul(d_basis)                                  # <alpha_i, D e_k>
    reflections = [[tuple(int(k == l) - a_d[i, k] * c for l, c in enumerate(coroots[i]))
                    for k in range(m)] for i in range(m)]
    images = [rational_solve(a_d, rt.mul_vector(e))       # Lambda(T_G) -> Lambda(T_Gss)
              for e in IntMatrix.identity(n).columns()]
    conditional = form_lattice(conditional_form_lattice(g))
    for coords, gram in gram_candidates(m):
        member = (is_weyl_invariant(gram, reflections)
                  and all(gram[k][k] % 2 == 0 for k in range(m))
                  and all(form(gram, e, y).denominator == 1
                          for e in IntMatrix.identity(m).columns() for y in images))
        assert conditional.contains(coords) == member, (g, gram)


# (SL(2) x SL(2) x T(2)) / <(-1, -1, 1, 1), (-1, 1, -1, 1)> on a basis of its
# cocharacter lattice: D(G) = SO(4) and G^ss = PGL(2) x PGL(2), so integrality
# against Lambda(T_Gss) cuts the conditional lattice further than evenness on
# Lambda(T_D(G)) does (the coefficients (1, 3) on the basic forms pass evenness)
SO4_GLUED = {"cochar_rank": 4, "simple_coroots": [[2, 0, -1, 0], [0, 0, 1, 0]],
             "simple_roots": [[1, 1, 0, 0], [1, 0, 2, 0]], "factor_types": ["A1", "A1"]}
GLUED_GROUPS = {
    "Sp(4) central torus": lambda: with_central_torus(build_group("Sp(4)"))[0],
    "SO(4) glued": lambda: group_from_json(SO4_GLUED),
}


def oracle_group(name):
    return GLUED_GROUPS[name]() if name in GLUED_GROUPS else build_group(name)


@pytest.mark.parametrize("name", SMALL_FACTORS + SMALL_PRODUCTS + list(GLUED_GROUPS))
def test_conditional_lattice_matches_the_brute_force_oracle(name):
    assert_conditional_lattice_matches_the_oracle(oracle_group(name))


def assert_ns_bun_p1_matches_the_oracle(g):
    n, m = g.cochar_rank, g.ss_rank
    grams = [f.gram.to_lists() for f in sc_even_forms(g).basis_forms]   # on the coroots
    coroots = g.simple_coroots.columns()
    cartan = g.simple_roots.transpose().mul(g.simple_coroots)           # <alpha_i, alpha_j^vee>
    cartan_t = cartan.transpose()
    bound = 2 if n + len(grams) <= 4 else 1
    chis = list(product(range(-bound, bound + 1), repeat=n))
    chi_at = {chi: [sum(a * x for a, x in zip(chi, c)) for c in coroots] for chi in chis}
    for delta in pi1_classes(g):
        lifts = _coroot_shifts(g, delta.lift(), 2) if coroots else [delta.lift()]
        for d in lifts:
            key = ns_bun_p1(g, delta, lift=d).key
            members = Lattice(key.rows, key)
            d_ss = rational_solve(cartan, g.simple_roots.transpose().mul_vector(d))
            # b_k(alpha_i^vee, d^ss)
            pair_d = [[sum(row[j] * y for j, y in enumerate(d_ss)) for row in gram]
                      for gram in grams]
            for coeffs in product(range(-bound, bound + 1), repeat=len(grams)):
                b_at = [sum(c * p[i] for c, p in zip(coeffs, pair_d)) for i in range(m)]
                for chi in chis:
                    v = [x - y for x, y in zip(b_at, chi_at[chi])]
                    member = all(x.denominator == 1 for x in rational_solve(cartan_t, v))
                    assert members.contains(chi + coeffs) == member, (g, delta, d, chi, coeffs)


@pytest.mark.parametrize("name", SMALL_FACTORS + SMALL_PRODUCTS + list(GLUED_GROUPS))
def test_ns_bun_p1_matches_the_brute_force_oracle(name):
    assert_ns_bun_p1_matches_the_oracle(oracle_group(name))


def assert_ns_rigidified_matches_the_oracle(g):
    grams = [f.gram.to_lists() for f in d_even_forms(g).basis_forms]
    coroots = g.simple_coroots.columns()
    cartan_t = g.simple_coroots.transpose().mul(g.simple_roots)    # <alpha_j, alpha_i^vee>
    bound = 3 if len(grams) <= 3 else 2
    integral = {}   # b(d, -) on the coroots -> whether it is a root-lattice restriction
    for delta in pi1_classes(g):
        lifts = _coroot_shifts(g, delta.lift(), 2) if coroots else [delta.lift()]
        for d in lifts:
            key = ns_rigidified(g, delta, lift=d).key
            members = Lattice(key.rows, key)
            pair_d = [[form(gram, d, c) for c in coroots] for gram in grams]   # b_k(d, a_i^vee)
            for coeffs in product(range(-bound, bound + 1), repeat=len(grams)):
                v = tuple(sum(c * p[i] for c, p in zip(coeffs, pair_d))
                          for i in range(len(coroots)))
                if v not in integral:
                    integral[v] = all(x.denominator == 1 for x in rational_solve(cartan_t, v))
                assert members.contains(coeffs) == integral[v], (g, delta, d, coeffs)


# groups with a radical beyond the small factors' GL(2) and GL(3)
RADICAL_GROUPS = ["GL(2)*T(1)"]


@pytest.mark.parametrize("name", SMALL_FACTORS + SMALL_PRODUCTS + list(GLUED_GROUPS)
                         + RADICAL_GROUPS)
def test_ns_rigidified_matches_the_brute_force_oracle(name):
    assert_ns_rigidified_matches_the_oracle(oracle_group(name))


@pytest.mark.parametrize("genus", range(4))
def test_weight_cokernel_of_gl_n_is_ramanans_gcd(genus):
    # GL(n) over universal:g,1, every class d in two full sets of residues mod
    # n, at the default lift and at one shifted by a coroot: coker(wt) =
    # Z/gcd(n, d); delta(C/S) = 1 makes the sub piece trivial
    family = family_from_preset("universal", genus, 1)
    for n in range(1, 7):
        g = build_group(f"GL({n})")
        for d in range(-n, n):
            delta = Pi1Element.from_coords(g, (d,))
            lifts = [None] if n == 1 else [None, _coroot_shifts(g, delta.lift(), 2)[1]]
            for lift in lifts:
                rep = weight_cokernel(g, delta, family, lift=lift)
                assert rep.coker_wt == FGAbelianGroup.cyclic(gcd(n, d)), (genus, n, d, lift)
