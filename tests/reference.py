"""Reference algorithms the tests check the library against.

No engine, the CLI or the benchmark calls these: ``solve`` works on any
matrix through the Smith normal form, ``rational_solve`` by Gaussian
elimination over ``Fraction``, ``det`` by Bareiss elimination,
``reflection`` is a simple reflection from its defining formula, and
``cokernel`` of a ``GroupHom`` on the generators of two canonical groups,
and ``group_by_smith`` a quotient group from the Smith form of all its
relations, where the library takes that of their echelon form's non-unit
core.
The form lattices are rebuilt by Weyl kernels of their own
(``invariant_coord_columns``, n rows per simple reflection over the Sym^2
coordinates): on Lambda(T_G), where the library saturates the span of the
basic inner products and the forms on the radical; on the simple-coroot
basis, where it takes the basic inner products; and on the basis of
Lambda(T_D(G)), where it cuts the conditional lattice from the sc forms.  ``torus_partial_bar`` and
``mod_delta_image`` are the adapted-basis route of the proof of Cor 4.5,
which the library replaces by the general connecting map on tori too.
``gram_to_coords`` reads a Gram matrix as Sym^2 coordinates,
``form_lattice`` views a ``FormLattice`` as a ``Lattice`` of those
coordinates, ``contains_lattice`` tests lattice inclusion column by column,
``saturation_by_kernels`` saturates a lattice as the kernel of its
annihilator, and ``lattice_sum`` and ``intersection`` compose lattices.
``ns_image_sublattice`` and ``gamma_bar_image`` are the divisibility images
of Thm 3.18 and Thm 4.3 composed from those lattice operations and a second
echelon, where the library solves each with one congruence solve in the
member and relation coordinates together; ``divisibility_conditions`` gives
the torus image of Thm 3.8 as one congruence lattice, and ``parity_image``
the genus-0 image of Thm 3.20 as an intersection and a sum.
"""

from dataclasses import dataclass
from fractions import Fraction

from bunpic.exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    group_from_relations,
    kernel_basis,
    preimage_lattice,
    quotient_group,
    rational_coordinates,
    smith_normal_form,
    solve_congruence_sublattice,
)
from bunpic.invariant_forms import (
    FormLattice,
    _cut_coefficients,
    _diagonal_even_conditions,
    sym2_dim,
    sym2_pairs,
)
from bunpic.root_datum import cross_diagram, divisibility


def solve(m: IntMatrix, b) -> tuple | None:
    """One integer solution of ``m*x = b``, or ``None`` if there is none.

    Works on any matrix, through the Smith normal form.  The library solves
    in HNF bases with ``Lattice.coordinates``; this is the reference the
    tests check spans and coordinates against.
    """
    s, u, v, _ = smith_normal_form(m)
    ub = u.mul_vector(tuple(b))
    y = [0] * m.cols
    r = min(s.rows, s.cols)
    for i in range(s.rows):
        d = s[i, i] if i < r else 0
        if d == 0:
            if i < len(ub) and ub[i] != 0:
                return None
        else:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
    return v.mul_vector(tuple(y))


def rational_solve(m: IntMatrix, b):
    """Unique rational solution of ``m*x = b`` for injective ``m`` (full column
    rank); returns a tuple of Fractions or raises if inconsistent."""
    nr, nc = m.rows, m.cols
    a = [[Fraction(m[i, j]) for j in range(nc)] + [Fraction(b[i])] for i in range(nr)]
    row = 0
    pivots = []
    for col in range(nc):
        piv = next((r for r in range(row, nr) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        a[row] = [x / p for x in a[row]]
        for r in range(nr):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == nr:
            break
    x = [Fraction(0)] * nc
    for r, col in enumerate(pivots):
        x[col] = a[r][nc]
    for r in range(nr):
        lhs = sum(Fraction(m[r, j]) * x[j] for j in range(nc))
        if lhs != b[r]:
            raise ValueError("inconsistent rational system")
    return tuple(x)


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reflection(g, i: int) -> IntMatrix:
    """Simple reflection s_i of the group g on its cocharacter lattice:
    x -> x - <alpha_i, x> alpha_i^vee."""
    n = g.cochar_rank
    a = g.simple_roots.column(i)
    av = g.simple_coroots.column(i)
    return IntMatrix.from_rows([[int(r == c) - av[r] * a[c] for c in range(n)]
                                for r in range(n)])


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between groups in canonical form, as a matrix on generators.

    Generators are ordered free ones first, then torsion generators in
    invariant-factor order.
    """

    source: FGAbelianGroup
    target: FGAbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.ngens or self.matrix.cols != self.source.ngens:
            raise ValueError("matrix shape does not match generator counts")
        # image of each source relation must lie in the target relation lattice
        for t, d in enumerate(self.source.torsion):
            col = self.matrix.column(self.source.free_rank + t)
            for i, x in enumerate(col):
                scaled = d * x
                if i < self.target.free_rank:
                    if scaled != 0:
                        raise ValueError("matrix does not respect torsion")
                else:
                    e = self.target.torsion[i - self.target.free_rank]
                    if scaled % e:
                        raise ValueError("matrix does not respect torsion")


def cokernel(f: GroupHom) -> FGAbelianGroup:
    """Canonical ``target / im(f)``: stack f with the target relations (the
    invariant factors on the torsion generators), take SNF."""
    t = f.target
    relations = IntMatrix.from_columns(
        [[d if i == t.free_rank + k else 0 for i in range(t.ngens)]
         for k, d in enumerate(t.torsion)], t.ngens)
    return group_from_relations(t.ngens, f.matrix.hstack(relations))


def group_by_smith(rank: int, relations: IntMatrix) -> FGAbelianGroup:
    """Canonical ``Z^rank`` modulo the columns of ``relations`` from the Smith
    form of the whole relation matrix."""
    s, _, _, _ = smith_normal_form(relations)
    diags = [s[i, i] for i in range(min(s.rows, s.cols))]
    return FGAbelianGroup.direct_sum(FGAbelianGroup.free(rank - len(diags)),
                                     *map(FGAbelianGroup.cyclic, diags))


def contains_lattice(big: Lattice, small: Lattice) -> bool:
    """Whether ``small`` is a sublattice of ``big``: every basis column of
    ``small`` lies in ``big``."""
    return all(big.contains(c) for c in small.basis.columns())


def saturation_by_kernels(l: Lattice) -> Lattice:
    """The saturation of ``l`` as the vectors that every functional vanishing
    on ``l`` kills: two integer kernels, where the library solves one
    congruence system on the pivot rows of the HNF basis."""
    perp = kernel_basis(l.basis.transpose())
    return Lattice.from_columns(l.ambient_rank, kernel_basis(perp.transpose()).columns())


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """The lattice spanned by ``a`` and ``b``."""
    return Lattice.from_columns(a.ambient_rank, a.basis.columns() + b.basis.columns())


def intersection(a: Lattice, b: Lattice) -> Lattice:
    """The basis of ``a`` applied to the coordinates ``x`` with ``basis * x``
    in ``b``."""
    coords = preimage_lattice(a.basis, b)
    return Lattice.from_columns(a.ambient_rank, a.basis.mul(coords.basis).columns())


# ---------------------------------------------------------------------------
# the Picard images of Thm 3.8, 3.18, 3.20 and 4.3 by composed lattices


def divisibility_points(n: int) -> list:
    """The basis vectors e_i, then the sums e_i + e_j for i < j."""
    return ([tuple(int(k == i) for k in range(n)) for i in range(n)]
            + [tuple(int(k in (i, j)) for k in range(n))
               for i in range(n) for j in range(i + 1, n)])


def divisibility_conditions(n: int, d, genus: int, delta_cs: int, forms) -> list:
    """The congruences delta(C/S) | chi(x) - b(d, x) + (g-1) b(x, x) at the
    test points, on chi coordinates then coefficients on ``forms``."""
    points = divisibility_points(n)
    vals = forms.values([(x, tuple((genus - 1) * a - b for a, b in zip(x, d))) for x in points])
    return [(x + vals.row(i), delta_cs) for i, x in enumerate(points)]


def ns_image_sublattice(ns, genus: int, delta_cs: int) -> Lattice:
    """Members of NS(Bun) with a representative modulo the root lattice that
    meets the divisibility condition: the members intersected with
    (congruence lattice + relations)."""
    n, forms = ns.chi_rank, ns.form_basis
    total = n + forms.rank
    cond = solve_congruence_sublattice(
        total, divisibility_conditions(n, ns.lift, genus, delta_cs, forms))
    rel = Lattice.from_columns(total, ns.relations.columns())
    return intersection(Lattice(total, ns.key), lattice_sum(cond, rel))


def parity_image(ns) -> Lattice:
    """The Thm 3.20 image for a family that is not Zariski-locally trivial:
    the certificates (chi, b) with chi(d) even, plus the relations."""
    total = ns.key.rows
    parity = solve_congruence_sublattice(total, [(ns.lift + (0,) * ns.form_basis.rank, 2)])
    even = intersection(Lattice(total, ns.certificates), parity)
    return lattice_sum(even, Lattice.from_columns(total, ns.relations.columns()))


def gamma_bar_image(g, rig, genus: int, delta_cs: int) -> Lattice:
    """Coefficients c on the rigidified NS basis for which some root
    coefficients beta meet delta(C/S) | beta(x) + b(d, x) + (g-1) b(x, x) at
    the test points: the solutions (beta, c), projected to c and put in HNF
    again."""
    nroots, nforms = g.ss_rank, rig.key.cols
    points = divisibility_points(g.cochar_rank)
    vals = rig.form_basis.values(
        [(x, tuple(a + (genus - 1) * b for a, b in zip(rig.lift, x))) for x in points])
    funcs = IntMatrix.from_rows(points).mul(g.simple_roots).hstack(vals.mul(rig.key))
    sols = solve_congruence_sublattice(nroots + nforms, [(f, delta_cs) for f in funcs.entries])
    return Lattice.from_columns(nforms, [c[nroots:] for c in sols.basis.columns()])


# ---------------------------------------------------------------------------
# the torus weight cokernel on a basis adapted to d (proof of Cor 4.5)


def torus_partial_bar(t, d, genus: int):
    """The connecting matrix of the torus closed form, written in a basis of
    the cocharacter lattice adapted to d (first vector d/div(d))."""
    r = t.cochar_rank
    d = tuple(d)
    div = divisibility(d, Lattice.full(r))
    cols = []
    # columns indexed by the adapted Sym^2 basis: e1e1, eiei, e1ei, eiej
    cols.append(tuple((div + 1 - genus) if i == 0 else 0 for i in range(r)))
    for i in range(1, r):
        cols.append(tuple((1 - genus) if j == i else 0 for j in range(r)))
    for i in range(1, r):
        cols.append(tuple(div if j == i else 0 for j in range(r)))
    # remaining mixed pairs map to zero
    pairs_rest = (r - 1) * (r - 2) // 2
    for _ in range(pairs_rest):
        cols.append(tuple(0 for _ in range(r)))
    return IntMatrix.from_columns(cols, r)


def mod_delta_image(m: IntMatrix, delta_cs: int) -> FGAbelianGroup:
    """Subgroup of (Z/delta)^rows generated by the columns of m."""
    rel = [tuple(delta_cs if i == j else 0 for i in range(m.rows)) for j in range(m.rows)]
    return quotient_group(Lattice.from_columns(m.rows, m.columns() + rel),
                          Lattice.from_columns(m.rows, rel))


# ---------------------------------------------------------------------------
# form lattices


def gram_to_coords(gram: IntMatrix) -> tuple:
    """The Sym^2 coordinates of a Gram matrix: its entries (i, j), i <= j."""
    return tuple(gram[i, j] for i, j in sym2_pairs(gram.rows))


def form_lattice(forms: FormLattice) -> Lattice:
    """The forms as a lattice of Sym^2 coordinates."""
    return Lattice(sym2_dim(forms.ambient_rank), forms.coords)


# ---------------------------------------------------------------------------
# form lattices by their own Weyl kernels


def invariant_coord_columns(n: int, roots) -> list:
    """Sym^2 coordinates of the forms fixed by the reflections of the given
    (coroot, root) pairs: s_a fixes b iff 2 b(a^vee, e_k) = b(a^vee, a^vee) <a, e_k>
    for every k (Bourbaki, Lie VI 1.1), so each reflection gives n linear rows.
    By bilinearity the row for e_k is b -> b(a^vee, 2 e_k - a_k a^vee), read as
    the values of the Sym^2 coordinate forms (the identity ``FormLattice``),
    so a row with a_k = 0 has the few terms of a^vee alone.  The kernel basis
    is already in HNF."""
    sym2 = FormLattice(n, IntMatrix.identity(sym2_dim(n)))
    pairs = [(coroot, tuple(2 * (i == k) - a_k * c for i, c in enumerate(coroot)))
             for coroot, root in roots for k, a_k in enumerate(root)]
    return kernel_basis(sym2.values(pairs)).columns()


def _kernel_cut(m, pairs, conditions, kernel):
    """The forms on Z^m fixed by the reflections of the (coroot, root) pairs
    (Sym^2 columns from ``kernel``) that meet the congruence conditions."""
    forms = FormLattice.from_coord_columns(m, kernel(m, pairs))
    cut = _cut_coefficients(forms, conditions)
    return FormLattice.from_coord_columns(m, forms.coords.mul(cut.basis).columns())


def form_lattices_by_kernel(g):
    """The invariant, even and D-even forms on Lambda(T_G) as the Weyl kernel
    of the simple reflections and its cuts, and the conditional lattice by
    its own kernel."""
    n = g.cochar_rank
    pairs = list(zip(g.simple_coroots.columns(), g.simple_roots.columns()))
    derived = cross_diagram(g).derived_lattice.basis.columns()
    return (_kernel_cut(n, pairs, (), invariant_coord_columns),
            _kernel_cut(n, pairs, _diagonal_even_conditions(n), invariant_coord_columns),
            _kernel_cut(n, pairs, [((u, u), 2) for u in derived], invariant_coord_columns),
            conditional_form_lattice_by_kernel(g))


def sc_even_forms_by_kernel(g, kernel=invariant_coord_columns):
    """The even forms of the Weyl kernel on the simple-coroot basis: coroot
    e_i, and root i paired with coroot j as the Cartan entry."""
    m = g.ss_rank
    cartan = g.simple_roots.transpose().mul(g.simple_coroots)
    pairs = list(zip(IntMatrix.identity(m).columns(), cartan.entries))
    return _kernel_cut(m, pairs, _diagonal_even_conditions(m), kernel)


def conditional_form_lattice_by_kernel(g, kernel=invariant_coord_columns):
    """The even forms of the Weyl kernel on Lambda(T_D(G)) (the coroots and
    the restricted roots in its basis) that are integral against
    Lambda(T_Gss): the basis of Lambda(T_Gss), written rationally (numerators
    p over denom) in the images of the derived basis in Lambda(T_Gad), gives
    the conditions b(e_a, p_b) = 0 mod denom."""
    cd = cross_diagram(g)
    derived = cd.derived_lattice
    m, d_basis = derived.rank, derived.basis
    res = d_basis.transpose()
    pairs = [(derived.coordinates(coroot), res.mul_vector(root))
             for coroot, root in zip(g.simple_coroots.columns(), g.simple_roots.columns())]
    conditions = list(_diagonal_even_conditions(m))
    p, denom = rational_coordinates(g.simple_roots.transpose().mul(d_basis),
                                    cd.ss_in_adjoint.basis)
    conditions += [((e_a, p_b), denom)
                   for e_a in IntMatrix.identity(m).columns() for p_b in p.columns()]
    return _kernel_cut(m, pairs, conditions, kernel)
