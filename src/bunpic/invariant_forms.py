"""Weyl-invariant symmetric bilinear form lattices and Neron-Severi groups.

Forms are handled in exact Sym^2 coordinates: a symmetric form on ``Z^n`` is
the vector of its Gram entries ``b_ij`` over pairs ``i <= j``.  A
``FormLattice`` is the column HNF basis of its Sym^2 coordinates, and
``FormLattice.values`` (rows of that matrix summed over the nonzero terms of
each value) is the one evaluator of forms; ``BilinearForm``, a Gram matrix,
is the output type.  Invariance is imposed only at the simple reflections
(they generate the Weyl group).  The reflection of a (coroot, root) pair
fixes b iff ``b(a^vee, 2 e_k - <a, e_k> a^vee) = 0`` for every basis vector
e_k: n rows per reflection, the values of the Sym^2 coordinate forms at
those pairs.  A congruence condition ((u, w), m) asks b(u, w) = 0 mod m
(evenness takes (e, e)); a cut solves the congruences on the values of the
basis forms.

A group has one Weyl kernel, on Lambda(T_G); the even and D-even lattices
are cuts of it.  By Cor C the even forms on the coroot lattice of G^sc are
free on the basic inner products of the simple factors, and the conditional
lattice is a cut of them in simple-coroot coordinates (``_sc_coordinates``).

Each form lattice of a group, and its derived quotient, is computed once per
``ReductiveGroupData`` object (``once_per_group``) and shared by every caller:
the values are immutable.  The derived quotient carries the group's cross
diagram and is the engines' only source of it, so the computations of a
report share one (the hypothesis gates of ``family`` still build their
own).  The even and D-even cuts share the memo ``_congruence_cut``, keyed
by its inputs, so they are one cut when G is semisimple.  The
lift-dependent NS groups are kept the same way, keyed by the checked lift
(one value per function, for the latest lift), so the computations of one
report that share a lift share one NS group.  The CLI builds one group per
report, so these values live for one report.

Values are built from their nonzero terms u_i w_j only (``_product_terms``).
Most pairs hold a unit vector (b(d, e_k), b(e_j, v), b(e, e)), and such a
pair touches at most n of the sym2_dim(n) coordinates.  The Gram
matrices of the generators of an NS group, which only output reads, come
from one product of the coordinate matrix with their coefficient columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    divide_exactly,
    kernel_basis,
    preimage_lattice,
    rational_coordinates,
    solve_congruence_sublattice,
    subgroup_generators,
)
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


def _pair_index(n: int, i: int, j: int) -> int:
    """Position of the pair (i, j), i <= j, in ``sym2_pairs(n)``."""
    return i * (2 * n - i + 1) // 2 + j - i


def _product_terms(n: int, u, w):
    """The nonzero terms of b(u, w) on Sym^2 coordinates: (pair index,
    u_i w_j) for each u_i w_j != 0, (i, j) and (j, i) at the same index."""
    w_terms = [(j, b) for j, b in enumerate(w) if b]
    for i, a in enumerate(u):
        if a:
            for j, b in w_terms:
                yield (_pair_index(n, i, j) if i <= j else _pair_index(n, j, i)), a * b


def gram_to_coords(gram: IntMatrix) -> tuple:
    n = gram.rows
    return tuple(gram[i, j] for i, j in sym2_pairs(n))


def coords_to_gram(n: int, coords) -> IntMatrix:
    coords = list(coords)
    g = [[0] * n for _ in range(n)]
    for (i, j), c in zip(sym2_pairs(n), coords):
        g[i][j] = c
        g[j][i] = c
    return IntMatrix.from_rows(g)


# ---------------------------------------------------------------------------
# forms and form lattices


@dataclass(frozen=True)
class BilinearForm:
    """Integer symmetric bilinear form, stored by its Gram matrix (the output
    type; computations use ``FormLattice.values``)."""

    gram: IntMatrix

    def __post_init__(self):
        if self.gram != self.gram.transpose():
            raise ValueError("Gram matrix must be symmetric")

    def coords(self) -> tuple:
        return gram_to_coords(self.gram)


@dataclass(frozen=True)
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

    def lattice(self) -> Lattice:
        return Lattice(sym2_dim(self.ambient_rank), self.coords)

    def contains(self, other: "FormLattice") -> bool:
        return self.lattice().contains_lattice(other.lattice())

    def values(self, pairs) -> IntMatrix:
        """The matrix with one row per pair (u, w) and one column per basis
        form b_k, holding b_k(u, w): the row of (u, w) adds up the rows of
        ``coords`` at the nonzero terms u_i w_j only."""
        n, coords = self.ambient_rank, self.coords.entries
        rows = []
        for u, w in pairs:
            row = [0] * self.rank
            for k, c in _product_terms(n, u, w):
                row = [a + c * b for a, b in zip(row, coords[k])]
            rows.append(row)
        return IntMatrix.from_rows(rows, self.rank)

    def forms_from_coeffs(self, coeffs: IntMatrix) -> tuple:
        """The forms whose basis coefficients are the columns of ``coeffs``,
        as Gram matrices for output, from one product ``coords * coeffs``."""
        n = self.ambient_rank
        return tuple(BilinearForm(coords_to_gram(n, c)) for c in self.coords.mul(coeffs).columns())


def _invariant_coord_columns(n: int, roots) -> list:
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


def _diagonal_even_conditions(n: int) -> tuple:
    return tuple(((e, e), 2) for e in IntMatrix.identity(n).columns())


def _cut_coefficients(forms: FormLattice, conditions) -> Lattice:
    """The basis coefficients of the forms b of ``forms`` with b(u, w) = 0 mod
    m for every condition ((u, w), m), cut on their values."""
    vals = forms.values([pair for pair, _ in conditions])
    return solve_congruence_sublattice(forms.rank, zip(vals.entries, (mod for _, mod in conditions)))


def _sc_coordinates(g: ReductiveGroupData, cols: IntMatrix):
    """The cocharacters ``cols`` in simple-coroot coordinates, numerators x over
    one denominator e: their images in Lambda(T_Gad) over the Cartan matrix."""
    rt = g.simple_roots.transpose()
    return rational_coordinates(rt.mul(g.simple_coroots), rt.mul(cols))


# ---------------------------------------------------------------------------
# the form lattices of the theory


@once_per_group
def _congruence_cut(g: ReductiveGroupData, forms: FormLattice, conditions: tuple) -> FormLattice:
    """The forms of ``forms`` that meet the conditions, cut once per group for
    each distinct input (the even and D-even cuts when G is semisimple)."""
    cut = _cut_coefficients(forms, conditions)
    return FormLattice.from_coord_columns(forms.ambient_rank, forms.coords.mul(cut.basis).columns())


@once_per_group
def invariant_sym_forms(g: ReductiveGroupData) -> FormLattice:
    """All Weyl-invariant symmetric forms on Lambda(T_G)."""
    n = g.cochar_rank
    cols = _invariant_coord_columns(n, zip(g.simple_coroots.columns(), g.simple_roots.columns()))
    return FormLattice(n, IntMatrix.from_columns(cols, sym2_dim(n)))     # already in HNF


@once_per_group
def even_invariant_forms(g: ReductiveGroupData) -> FormLattice:
    """Invariant symmetric forms with even diagonal (b(x,x) in 2Z)."""
    return _congruence_cut(g, invariant_sym_forms(g), _diagonal_even_conditions(g.cochar_rank))


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
def conditional_form_lattice(g: ReductiveGroupData) -> FormLattice:
    """Invariant even forms on Lambda(T_D(G)) whose rational extension is
    integral on Lambda(T_D(G)) x Lambda(T_Gss); Gram matrices are on the
    basis of Lambda(T_D(G)).

    Such a form extends an sc even form b.  In sc coordinates, as numerators
    over one denominator e, the derived basis u and the images w of the
    basis of Lambda(T_G) in Lambda(T_Gss) give the conditions b(u, u) = 0
    mod 2e^2 and b(u, w) = 0 mod e^2, and the Gram entries b(u_i, u_j) / e^2.
    This cut stays out of the one-slot ``_congruence_cut``, where it would
    evict the even cut that the D-even lattice shares."""
    forms = sc_even_forms(g)
    d_basis = _derived_quotient(g)[0].derived_lattice.basis
    m = d_basis.cols
    x, e = _sc_coordinates(g, d_basis.hstack(IntMatrix.identity(g.cochar_rank)))
    u, w = x.columns()[:m], x.columns()[m:]
    conditions = [((a, a), 2 * e * e) for a in u] + [((a, b), e * e) for a in u for b in w]
    cut = _cut_coefficients(forms, conditions)
    vals = forms.values([(u[i], u[j]) for i, j in sym2_pairs(m)]).mul(cut.basis)
    return FormLattice.from_coord_columns(
        m, divide_exactly(vals, e * e, "conditional form is not integral").columns())


@once_per_group
def d_even_forms(g: ReductiveGroupData) -> FormLattice:
    """Invariant symmetric forms on Lambda(T_G) whose restriction to the
    derived lattice is even."""
    conditions = tuple(((u, u), 2) for u in _derived_quotient(g)[0].derived_lattice.basis.columns())
    return _congruence_cut(g, invariant_sym_forms(g), conditions)


# ---------------------------------------------------------------------------
# Neron-Severi groups


@dataclass(frozen=True)
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
def _ns_bun(g: ReductiveGroupData, d: tuple) -> NSGroup:
    n = g.cochar_rank
    forms = d_even_forms(g)
    _, res, target = _derived_quotient(g)
    pair_d = forms.values([(d, e) for e in IntMatrix.identity(n).columns()])   # b_k(d, -)
    m = res.hstack(res.mul(pair_d).neg())          # (chi, b) -> res(chi - b(d, -))
    relations = _root_relations(g, forms.rank)
    compatible = preimage_lattice(m, target).basis.columns()
    group, key, gens = subgroup_generators(n + forms.rank, compatible, relations)
    # certificate check: the defining compatibility res(chi - b(d, -)) = 0 holds exactly
    if not all(target.contains(c) for c in m.mul(gens).columns()):
        raise ArithmeticError("NS generator fails the compatibility condition")
    return NSGroup(kind="bun", group=group, chi_rank=n, form_basis=forms, gens=gens,
                   relations=relations, key=key, lift=d)


def ns_rigidified(g: ReductiveGroupData, delta: Pi1Element, lift=None) -> NSGroup:
    """NS of the rigidification: D-even invariant forms b on Lambda(T_G) with
    b(d x -) restricting to zero in Lambda^*(T_D)/Lambda^*(T_Gad)."""
    return _ns_rigidified(g, delta.lift(lift))


@once_per_group
def _ns_rigidified(g: ReductiveGroupData, d: tuple) -> NSGroup:
    n = g.cochar_rank
    forms = d_even_forms(g)
    _, res, target = _derived_quotient(g)
    m = res.mul(forms.values([(d, e) for e in IntMatrix.identity(n).columns()]))
    sub = preimage_lattice(m, target)
    if not all(target.contains(c) for c in m.mul(sub.basis).columns()):
        raise ArithmeticError("rigidified NS generator fails condition (zero weight)")
    return NSGroup(kind="rigidified", group=FGAbelianGroup.free(sub.rank), chi_rank=n,
                   form_basis=forms, gens=sub.basis,
                   relations=IntMatrix.zero(n + forms.rank, 0), key=sub.basis, lift=d)


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
    n, mm = g.cochar_rank, g.ss_rank
    forms = sc_even_forms(g)
    s = forms.rank
    v, denom = _sc_coordinates(g, IntMatrix.from_columns([d], n))   # d^ss = v / denom
    vals = forms.values([(e, v.column(0)) for e in IntMatrix.identity(mm).columns()])
    at = g.simple_coroots.transpose()   # chi -> (chi(a_j^vee))_j
    rows = [tuple(denom * x for x in at.row(j)) + tuple(-x for x in vals.row(j))
            for j in range(mm)]
    members = kernel_basis(IntMatrix.from_rows(rows, n + s))     # already in HNF
    relations = _root_relations(g, s)
    group, key, gens = subgroup_generators(n + s, members.columns(), relations)
    return NSGroup(kind="bun_p1", group=group, chi_rank=n, form_basis=forms, gens=gens,
                   relations=relations, key=key, lift=d, certificates=members)
