"""Weyl-invariant symmetric bilinear form lattices and Neron-Severi groups.

Forms are handled in exact Sym^2 coordinates: a symmetric form on ``Z^n`` is
the vector of its Gram entries ``b_ij`` over pairs ``i <= j``.  A
``FormLattice`` is the column HNF basis of its Sym^2 coordinates, and
``FormLattice.values`` (one sparse product of the pairs' term rows with that
matrix) is the one evaluator of forms; ``BilinearForm``, a Gram matrix, is
the output type.  A congruence condition ((u, w), m) asks b(u, w) = 0 mod m
(evenness takes (e, e)); a cut solves the congruences on the values of the
basis forms.

The invariant forms on Lambda(T_G) come from the root datum in closed form
(``_invariant_form_coords``).  Over Q they are spanned by the basic inner
product of each simple factor, read on the simple-coroot coordinates of the
projection to the span of the coroots, and by the forms on the radical (the
products of two functionals that kill the coroots); the integral forms are
the integral points of that span, its ``saturation``.  A torus has every
form.  The even and D-even lattices are cuts of the invariant forms.  By
Cor C the even forms on the coroot lattice of G^sc are free on
the basic inner products of the simple factors, and the conditional lattice
is a cut of them in simple-coroot coordinates.  Each such coordinate is a
product with p = C^-1 A^T over one denominator e, solved once per group
(``_sc_projection``): the projection of the forms, the derived basis U = p D
and delta^ss = p d.  The sc forms at (alpha_i^vee, delta^ss) give NS
Bun(P^1), and U^T times them ev and ev-hat (``_sc_evaluation``).  That sc
side evaluates at one lift, the caller's or else the generic one, so a
report evaluates the sc forms once.

NS(Bun) and NS(rigidified) share one compatible lattice per lift
(``_ns_compatible``): the pairs (chi, b) that m = [res | -res B_d] sends
into the restricted roots, B_d = b_k(d, e_i) the D-even forms at d, in HNF.
NS(Bun) presents it modulo the roots; NS(rigidified) = {b : (0, b) in it},
the part with no character, is read off its HNF basis.

Each form lattice of a group, and its derived quotient, is computed once per
``ReductiveGroupData`` object (``once_per_group``) and shared by every caller:
the values are immutable.  The derived quotient carries the group's cross
diagram and is the engines' only source of it, so the computations of a
report share one (the hypothesis gates of ``family`` still build their
own).  When G is semisimple, Lambda(T_D) = Lambda(T_G) and the D-even
lattice is the even one, so the two share one ``_congruence_cut``.  The
lift-dependent NS groups are kept on the group too, keyed by the checked
lift (one value per function, for the latest lift), so the computations of
one report that share a lift share one NS group.  The CLI builds one group per
report, so these values live for one report.

Values are built from their nonzero terms u_i w_j only (``FormLattice.values``).
Most pairs hold a unit vector (b(d, e_k), b(e_j, v), b(e, e)), and such a
pair touches at most n of the sym2_dim(n) coordinates.  The Gram
matrices of the generators of an NS group, which only output reads, come
from one product of the coordinate matrix with their coefficient columns.
"""

from __future__ import annotations

import functools

from .exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    divide_exactly,
    kernel_basis,
    preimage_lattice,
    rational_coordinates,
    saturation,
    solve_congruence_sublattice,
    subgroup_generators,
)
from .record import record
from .root_datum import (
    Pi1Element,
    ReductiveGroupData,
    SimpleType,
    cartan_matrix,
    coroot_lengths,
    cross_diagram,
    once_per_group,
)


# ---------------------------------------------------------------------------
# Sym^2 coordinates


def sym2_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym2_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple:
    """The position of the pair (i, j) or (j, i) in ``sym2_pairs(n)``, as an
    n x n table."""
    return tuple(tuple(min(i, j) * (2 * n - min(i, j) + 1) // 2 + abs(j - i) for j in range(n))
                 for i in range(n))


def coords_to_gram(n: int, coords) -> IntMatrix:
    coords = list(coords)
    g = [[0] * n for _ in range(n)]
    for (i, j), c in zip(sym2_pairs(n), coords):
        g[i][j] = c
        g[j][i] = c
    return IntMatrix.from_rows(g)


# ---------------------------------------------------------------------------
# forms and form lattices


@record
class BilinearForm:
    """Integer symmetric bilinear form, stored by its Gram matrix (the output
    type; computations use ``FormLattice.values``)."""

    gram: IntMatrix

    def __post_init__(self):
        if self.gram != self.gram.transpose():
            raise ValueError("Gram matrix must be symmetric")


@record
class FormLattice:
    """A lattice of symmetric forms on ``Z^ambient_rank``: ``coords`` is the
    column HNF basis of its Sym^2 coordinates, one column per basis form."""

    ambient_rank: int
    coords: IntMatrix

    @staticmethod
    def from_coord_columns(n: int, cols) -> "FormLattice":
        return FormLattice(n, Lattice.from_columns(sym2_dim(n), cols).basis)

    @property
    def rank(self) -> int:
        return self.coords.cols

    @property
    def basis_forms(self) -> tuple:
        """The basis forms as Gram matrices, for output."""
        return tuple(BilinearForm(coords_to_gram(self.ambient_rank, c))
                     for c in self.coords.columns())

    def values(self, pairs) -> IntMatrix:
        """The matrix with one row per pair (u, w) and one column per basis
        form b_k, holding b_k(u, w): one sparse product of the pairs' term
        rows (b(u, w) on the Sym^2 coordinates, from the nonzero terms u_i w_j
        only) with ``coords``."""
        index, dim = _pair_indices(self.ambient_rank), sym2_dim(self.ambient_rank)
        rows = []
        for u, w in pairs:
            row = [0] * dim
            w_terms = [(j, b) for j, b in enumerate(w) if b]
            for at, a in zip(index, u):
                if a:
                    for j, b in w_terms:
                        row[at[j]] += a * b
            rows.append(tuple(row))
        return IntMatrix(len(rows), dim, tuple(rows)).mul(self.coords)

    def forms_from_coeffs(self, coeffs: IntMatrix) -> tuple:
        """The forms whose basis coefficients are the columns of ``coeffs``,
        as Gram matrices for output, from one product ``coords * coeffs``."""
        n = self.ambient_rank
        return tuple(BilinearForm(coords_to_gram(n, c)) for c in self.coords.mul(coeffs).columns())


def _diagonal_even_conditions(n: int) -> tuple:
    return tuple(((e, e), 2) for e in IntMatrix.identity(n).columns())


def _cut_coefficients(forms: FormLattice, conditions) -> Lattice:
    """The basis coefficients of the forms b of ``forms`` with b(u, w) = 0 mod
    m for every condition ((u, w), m), cut on their values (modulus 1 asks
    nothing, so those pairs are never evaluated)."""
    conditions = [c for c in conditions if c[1] != 1]
    vals = forms.values([pair for pair, _ in conditions])
    return solve_congruence_sublattice(forms.rank, zip(vals.entries, (mod for _, mod in conditions)))


@once_per_group
def _sc_projection(g: ReductiveGroupData):
    """p = C^-1 A^T as integer numerators over one denominator e, the least:
    x in Lambda(T_G) to the simple-coroot coordinates of its projection to
    the span of the coroots.  The one solve of the Cartan matrix per group."""
    rt = g.simple_roots.transpose()
    return rational_coordinates(rt.mul(g.simple_coroots), rt)


def _derived_sc_basis(g: ReductiveGroupData):
    """The basis of Lambda(T_D) in simple-coroot coordinates, U = p D, as
    numerators over e."""
    p, e = _sc_projection(g)
    return p.mul(_derived_quotient(g)[0].derived_lattice.basis), e


def _invariant_form_coords(g: ReductiveGroupData) -> IntMatrix:
    """Sym^2 coordinates of the Weyl-invariant forms on Lambda(T_G), in HNF.

    Over Q the invariant forms are the basic inner products of the simple
    factors f, put on the projection y = C^-1 A^T x of x to the span of the
    coroots (C the Cartan matrix, A the roots): b_f(x, x') = sum over i in f
    of l_i y_i <alpha_i, x'>, with l the coroot lengths; and the products of
    two functionals that kill the coroots, the forms on the radical.  The
    integral forms are the ``saturation`` of that span.  A torus has every
    form."""
    n = g.cochar_rank
    dim = sym2_dim(n)
    if g.is_torus:
        return IntMatrix.identity(dim)
    rt = g.simple_roots.transpose()
    y = _sc_projection(g)[0].entries                   # e * y, row i for coroot i
    ell = [l for t in g.factor_types for l in coroot_lengths(t)]
    cols = [tuple(sum(ell[i] * y[i][p] * rt[i, q] for i in block) for p, q in sym2_pairs(n))
            for block in g.factor_blocks()]
    perp = kernel_basis(g.simple_coroots.transpose()).columns()
    cols += [tuple(u[p] * w[q] + u[q] * w[p] for p, q in sym2_pairs(n))
             for i, u in enumerate(perp) for w in perp[i:]]
    return saturation(Lattice.from_columns(dim, cols)).basis


# ---------------------------------------------------------------------------
# the form lattices of the theory


def _congruence_cut(forms: FormLattice, conditions) -> FormLattice:
    """The forms of ``forms`` that meet the conditions."""
    cut = _cut_coefficients(forms, conditions)
    return FormLattice.from_coord_columns(forms.ambient_rank, forms.coords.mul(cut.basis).columns())


@once_per_group
def invariant_sym_forms(g: ReductiveGroupData) -> FormLattice:
    """All Weyl-invariant symmetric forms on Lambda(T_G)."""
    return FormLattice(g.cochar_rank, _invariant_form_coords(g))


@once_per_group
def even_invariant_forms(g: ReductiveGroupData) -> FormLattice:
    """Invariant symmetric forms with even diagonal (b(x,x) in 2Z)."""
    return _congruence_cut(invariant_sym_forms(g), _diagonal_even_conditions(g.cochar_rank))


def basic_inner_product(t: SimpleType) -> BilinearForm:
    """The minimal Weyl-invariant even form on the coroot lattice of the
    simply connected group of type t, normalized so short coroots have square
    length 2; Gram matrix on the simple coroots."""
    c, ell = cartan_matrix(t), coroot_lengths(t)
    return BilinearForm(IntMatrix.from_rows([[c[i, j] * ell[i] for j in range(t.rank)]
                                             for i in range(t.rank)]))


@once_per_group
def sc_even_forms(g: ReductiveGroupData) -> FormLattice:
    """(Sym^2 of the weight lattice)^W: even invariant forms on the coroot
    lattice of G^sc, in simple-coroot coordinates; by Cor C, free on the
    basic inner products of the simple factors, each on its block."""
    m = g.ss_rank
    cols = []
    for t, block in zip(g.factor_types, g.factor_blocks()):
        gram, s = basic_inner_product(t).gram, block.start
        cols.append([gram[i - s, j - s] if i in block and j in block else 0
                     for i, j in sym2_pairs(m)])
    return FormLattice.from_coord_columns(m, cols)


@once_per_group
def _conditional_coefficients(g: ReductiveGroupData) -> Lattice:
    """The coefficients on ``sc_even_forms`` of the forms that extend the
    conditional forms.  With the derived basis u = p D and the images w of
    the basis of Lambda(T_G) in Lambda(T_Gss) (the columns of p), numerators
    over e, the conditions are b(u, u) = 0 mod 2e^2 and b(u, w) = 0 mod e^2."""
    (u, e), w = _derived_sc_basis(g), _sc_projection(g)[0].columns()
    u = u.columns()
    conditions = [((a, a), 2 * e * e) for a in u] + [((a, b), e * e) for a in u for b in w]
    return _cut_coefficients(sc_even_forms(g), conditions)


@once_per_group
def conditional_form_lattice(g: ReductiveGroupData) -> FormLattice:
    """Invariant even forms on Lambda(T_D(G)) whose rational extension is
    integral on Lambda(T_D(G)) x Lambda(T_Gss); Gram matrices are on the
    basis of Lambda(T_D(G)).  Such a form extends an sc even form b of
    ``_conditional_coefficients``, with Gram entries b(u_i, u_j) / e^2."""
    u, e = _derived_sc_basis(g)
    m, u = u.cols, u.columns()
    vals = sc_even_forms(g).values([(u[i], u[j]) for i, j in sym2_pairs(m)])
    return FormLattice.from_coord_columns(m, divide_exactly(
        vals.mul(_conditional_coefficients(g).basis), e * e,
        "conditional form is not integral").columns())


@once_per_group
def _sc_evaluation(g: ReductiveGroupData, d: tuple):
    """b_k(alpha_i^vee, d^ss) for the basis forms b_k of ``sc_even_forms``
    (row i, column k) and d^ss = p d, over e, which NS Bun(P^1) reads; and
    U^T times it, b_k(u_j, d^ss) on the derived basis u, over e^2, which ev
    and ev-hat read.  Kept for the latest lift."""
    p, e = _sc_projection(g)
    v = p.mul_vector(d)
    vals = sc_even_forms(g).values([(a, v) for a in IntMatrix.identity(g.ss_rank).columns()])
    return (vals, e), (_derived_sc_basis(g)[0].transpose().mul(vals), e * e)


@once_per_group
def d_even_forms(g: ReductiveGroupData) -> FormLattice:
    """Invariant symmetric forms on Lambda(T_G) whose restriction to the
    derived lattice is even: the even forms when G is semisimple, where the
    derived lattice is Lambda(T_G)."""
    if g.is_semisimple:
        return even_invariant_forms(g)
    conditions = [((u, u), 2) for u in _derived_quotient(g)[0].derived_lattice.basis.columns()]
    return _congruence_cut(invariant_sym_forms(g), conditions)


# ---------------------------------------------------------------------------
# Neron-Severi groups


@record
class NSGroup:
    """A Neron-Severi group as integer columns in its ambient coordinates
    (character coordinates first, then form-lattice coefficients).

    ``relations`` are the ambient's identifications (the roots, padded with
    zero form coefficients).  ``key`` is the HNF basis of the subgroup with
    its relations, so two computations of the same subgroup compare equal no
    matter which lift of delta was used.  ``gens`` holds one column per
    canonical generator of ``group``: the full ambient column for ``bun`` and
    ``bun_p1``, the form coefficients alone for ``rigidified``, whose classes
    have no character part.
    """

    kind: str
    group: FGAbelianGroup
    chi_rank: int
    form_basis: FormLattice
    gens: IntMatrix
    relations: IntMatrix
    key: IntMatrix
    lift: tuple
    certificates: IntMatrix | None = None   # bun_p1: unique (chi, b) witnesses

    @property
    def generators(self) -> tuple:
        """The generators as (chi tuple | None, BilinearForm) pairs, for output."""
        if self.kind == "rigidified":
            return tuple((None, f) for f in self.form_basis.forms_from_coeffs(self.gens))
        n, gens = self.chi_rank, self.gens
        coeffs = IntMatrix(gens.rows - n, gens.cols, gens.entries[n:])
        return tuple(zip((c[:n] for c in gens.columns()), self.form_basis.forms_from_coeffs(coeffs)))


def _root_relations(g: ReductiveGroupData, extra_rank: int) -> IntMatrix:
    """Columns (root, 0) in Z^{n + extra_rank}."""
    return IntMatrix.from_columns([tuple(c) + (0,) * extra_rank for c in g.simple_roots.columns()],
                                  g.cochar_rank + extra_rank)


@once_per_group
def _derived_quotient(g: ReductiveGroupData):
    """The cross diagram of G, with Lambda^*(T_D)/Lambda^*(T_Gad) as the
    lattice of restricted roots inside Lambda^*(T_D) and the restriction
    matrix Lambda^*(T_G) -> Lambda^*(T_D).

    This is the engines' one cross diagram per group: the form lattices, NS
    groups, Picard and gerbe computations read it here.  The gates in
    ``family.hypothesis_check`` still build their own until ROADMAP item 1
    lands: a memo on ``cross_diagram`` would remove those builds too, and
    that ``sweep_small`` gain is what the benchmark's ``peak_rss_mib``, which
    still reads the harness's memory, punishes."""
    cd = cross_diagram(g)
    res = cd.derived_lattice.basis.transpose()                 # n -> m_D
    return cd, res, Lattice.from_columns(res.rows, res.mul(g.simple_roots).columns())


def ns_bun(g: ReductiveGroupData, delta: Pi1Element, lift=None) -> NSGroup:
    """NS(Bun_G^delta): pairs ([chi], b) in Lambda^*(T_G)/Lambda^*(T_Gad) x
    (D-even invariant forms) with [chi|_D] = [b(d x -)|_D]; independent of the
    chosen lift d of delta."""
    return _ns_bun(g, delta.lift(lift))


@once_per_group
def _ns_compatible(g: ReductiveGroupData, d: tuple):
    """The compatibility map m = [res | -res B_d], (chi, b) -> res(chi - b(d, -))
    with B_d = b_k(d, e_i) on the D-even forms, and the lattice C of the pairs
    it sends into the restricted roots, in HNF: the one evaluation at d and
    the one preimage that NS(Bun) and NS(rigidified) share, for a checked
    lift (kept for the latest lift)."""
    n = g.cochar_rank
    _, res, target = _derived_quotient(g)
    pair_d = d_even_forms(g).values([(d, e) for e in IntMatrix.identity(n).columns()])
    m = res.hstack(res.mul(pair_d).neg())
    return m, preimage_lattice(m, target)


@once_per_group
def _ns_bun(g: ReductiveGroupData, d: tuple) -> NSGroup:
    n = g.cochar_rank
    forms = d_even_forms(g)
    target = _derived_quotient(g)[2]
    m, compatible = _ns_compatible(g, d)
    relations = _root_relations(g, forms.rank)
    group, key, gens = subgroup_generators(n + forms.rank, compatible.basis.columns(), relations)
    # certificate check: the defining compatibility res(chi - b(d, -)) = 0 holds exactly
    if not all(target.contains(c) for c in m.mul(gens).columns()):
        raise ArithmeticError("NS generator fails the compatibility condition")
    return NSGroup(kind="bun", group=group, chi_rank=n, form_basis=forms, gens=gens,
                   relations=relations, key=key, lift=d)


def ns_rigidified(g: ReductiveGroupData, delta: Pi1Element, lift=None) -> NSGroup:
    """NS of the rigidification: D-even invariant forms b on Lambda(T_G) with
    b(d x -) restricting to zero in Lambda^*(T_D)/Lambda^*(T_Gad), that is the
    pairs (0, b) of NS(Bun)'s compatible lattice."""
    return _ns_rigidified(g, delta.lift(lift))


@once_per_group
def _ns_rigidified(g: ReductiveGroupData, d: tuple) -> NSGroup:
    """{b : (0, b) in C}, read off the HNF basis of the compatible lattice C:
    its columns with no character part come last and, cut to their form rows,
    still meet every HNF condition, so they are the lattice's HNF basis."""
    n = g.cochar_rank
    forms = d_even_forms(g)
    target = _derived_quotient(g)[2]
    m, compatible = _ns_compatible(g, d)
    zero_chi = IntMatrix.from_columns([c for c in compatible.basis.columns() if not any(c[:n])],
                                      m.cols)
    if not all(target.contains(c) for c in m.mul(zero_chi).columns()):
        raise ArithmeticError("rigidified NS generator fails condition (zero weight)")
    basis = IntMatrix.from_columns([c[n:] for c in zero_chi.columns()], forms.rank)
    return NSGroup(kind="rigidified", group=FGAbelianGroup.free(basis.cols), chi_rank=n,
                   form_basis=forms, gens=basis,
                   relations=IntMatrix.zero(forms.rank, 0), key=basis, lift=d)


def ns_bun_p1(g: ReductiveGroupData, delta: Pi1Element, lift=None) -> NSGroup:
    """NS Bun_G^delta(P^1): pairs (l, b) with l in Lambda^*(Z(G)) and b an
    even invariant form on the coroot lattice such that l + b(d^ss, -) comes
    from an integral character of T_G.

    The condition is membership of the pair in the image of the injection
    Lambda^*(T_G) -> Lambda^*(Z(G)) + Lambda^*(T_Gsc)_Q, chi -> ([chi], chi^ss);
    the integral chi certifying a member is unique and is stored with it.
    """
    return _ns_bun_p1(g, delta.lift(lift, generic=True))


@once_per_group
def _ns_bun_p1(g: ReductiveGroupData, d: tuple) -> NSGroup:
    n, forms = g.cochar_rank, sc_even_forms(g)
    s = forms.rank
    (vals, denom), _ = _sc_evaluation(g, d)
    # (chi, c) with chi(a_j^vee) = (vals c)_j / denom; the kernel is already in HNF
    rows = [tuple(denom * x for x in a) + tuple(-x for x in v)
            for a, v in zip(g.simple_coroots.transpose().entries, vals.entries)]
    members = kernel_basis(IntMatrix.from_rows(rows, n + s))
    relations = _root_relations(g, s)
    group, key, gens = subgroup_generators(n + s, members.columns(), relations)
    return NSGroup(kind="bun_p1", group=group, chi_rank=n, form_basis=forms, gens=gens,
                   relations=relations, key=key, lift=d, certificates=members)
