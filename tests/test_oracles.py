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
``FormLattice.lattice().contains``.

NS(Bun^delta) membership of (chi, c), c the coefficients of b = sum c_k b_k
on the D-even basis forms, is decided from its definition: res(chi - b(d, -))
lies in the lattice of restricted roots.  The restricted roots are a rational
basis of Lambda^*(T_D), and the coroots one of Lambda(T_D), so that holds iff
the rational n with sum_j n_j <alpha_j, alpha_i^vee> = chi(alpha_i^vee) -
b(d, alpha_i^vee) for every i is integral (``reference.rational_solve``).
"""

from itertools import product

import pytest

from bunpic.exact_algebra import Lattice
from bunpic.invariant_forms import (
    d_even_forms,
    even_invariant_forms,
    invariant_sym_forms,
    ns_bun,
    sym2_pairs,
)
from bunpic.root_datum import Pi1Element, build_group, fundamental_group, with_central_torus
from reference import rational_solve, reflection
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
    invariant = invariant_sym_forms(g).lattice()
    even = even_invariant_forms(g).lattice()
    d_even = d_even_forms(g).lattice()
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
