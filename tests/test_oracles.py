"""Brute-force oracles for small groups: each form lattice checked against
its definition on a box of candidate Gram matrices.

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
"""

from itertools import product

import pytest

from bunpic.invariant_forms import (
    d_even_forms,
    even_invariant_forms,
    invariant_sym_forms,
    sym2_pairs,
)
from bunpic.root_datum import build_group, with_central_torus
from reference import rational_solve, reflection
from test_invariant_forms import SMALL_FACTORS

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
