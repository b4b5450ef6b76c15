"""Exact integer linear algebra: normal forms, lattices, and finitely
generated abelian groups.

Everything here is computed over Python's arbitrary-precision integers, so
results are exact and canonical:

* matrices are immutable row-major integer matrices (:class:`IntMatrix`);
  their products (:meth:`IntMatrix.mul`, :meth:`IntMatrix.mul_vector`) add
  up nonzero terms only, so a sparse factor such as an identity-like
  coordinate matrix costs its nonzero entries, not its shape;
* lattices are stored in column Hermite normal form, so two equal sublattices
  of ``Z^n`` have identical representations;
* finitely generated abelian groups are stored as invariant factors
  ``d_1 | d_2 | ... | d_k`` plus a free rank, so isomorphism is equality;
* a quotient ``Z^n / R`` is taken against its relation :class:`Lattice`
  ``R`` (:func:`preimage_lattice`, :func:`hom_cokernel`,
  :func:`quotient_group`), so the result depends on the span of the
  relations only; :func:`subgroup_generators` takes the relation columns
  themselves, because their order fixes the canonical generators;
* rational coordinates are integer numerators over one common denominator
  (:func:`rational_coordinates`, solved through the Smith normal form), and
  a numerator matrix known to be divisible is divided through, checked, by
  :func:`divide_exactly`;
* empty shapes (0 x n, n x 0, 0 x 0, rank 0, no relations or conditions)
  take the general algorithms: :meth:`IntMatrix.from_rows` and
  :meth:`IntMatrix.from_columns` take the dimension an empty list cannot show.

Which normal form does which job:

* one column-echelon routine, ``_echelon``, gives the Hermite normal form
  (:func:`hermite_normal_form`, on ``[m; I]`` for the transform) and, in
  ``_preimage_basis``, the HNF basis of ``{x : m*x in the span of rel}``:
  the lower blocks of the columns of ``[[m, rel], [I, 0]]`` whose top block
  the echelon clears.  That one routine builds integer kernels
  (:func:`kernel_basis`, no ``rel``), preimages (:func:`preimage_lattice`),
  intersections (:meth:`Lattice.intersection`) and congruence lattices
  (:func:`solve_congruence_sublattice`, ``rel = diag(m)`` after each
  modulus's functionals are cut to an echelon basis of their span);
* membership and coordinates in a lattice back-substitute along the pivot
  rows of its HNF basis (:meth:`Lattice.coordinates`);
* one Smith normal form, :func:`smith_normal_form`, which also carries the
  inverse of its row transform, is used only where invariant factors or a
  basis adapted to them are the output: :func:`group_from_relations`,
  :func:`canonical_generators` (generator lifts from that inverse; it also
  splits off the free quotient in ``root_datum.cross_diagram``),
  :func:`rational_coordinates` and the glue basis of
  ``root_datum.with_central_torus``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if ncols is None:
            ncols = len(data[0]) if data else 0
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def from_columns(cols, nrows: int | None = None) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for an empty column list")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        rows = tuple(tuple(c[i] for c in cols) for i in range(nrows))
        return IntMatrix(nrows, len(cols), rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix(nrows, ncols, tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product, from its nonzero terms only: row i adds ``a * b`` for
        each nonzero ``a = self[i, k]`` and each nonzero ``b`` in row k of
        ``other``."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        other_terms = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        rows = []
        for r in self.entries:
            acc = [0] * other.cols
            for a, terms in zip(r, other_terms):
                if a:
                    for j, b in terms:
                        acc[j] += a * b
            rows.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(rows))

    def mul_vector(self, v) -> tuple:
        """The product with ``v``, over the nonzero entries of ``v`` only."""
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        terms = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum(row[j] * x for j, x in terms) for row in self.entries)

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-a for a in r) for r in self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r + s for r, s in zip(self.entries, other.entries)))

    def to_lists(self) -> list:
        return [list(row) for row in self.entries]


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def _echelon(cols, nrows: int) -> list:
    """Column echelon form on the first ``nrows`` rows; entries below them
    ride along, so a stacked identity records the transform.

    Returns the nonzero reduced columns as lists: pivot rows strictly
    increasing, pivots positive, and in a pivot row every entry to the left
    of the pivot reduced into ``[0, pivot)``.  A column is only ever swapped,
    negated or changed by an integer multiple of another, so the columns
    span the same lattice throughout.
    """
    h = [list(c) for c in cols]
    pivot_col = 0
    for row in range(nrows):
        if pivot_col >= len(h):
            break
        # gcd-eliminate row entries across the trailing columns into pivot_col
        while True:
            live = [j for j in range(pivot_col, len(h)) if h[j][row] != 0]
            if not live:
                break
            jmin = min(live, key=lambda j: abs(h[j][row]))
            h[pivot_col], h[jmin] = h[jmin], h[pivot_col]
            pc = h[pivot_col]
            done = True
            for j in range(pivot_col + 1, len(h)):
                if h[j][row] != 0:
                    q = h[j][row] // pc[row]
                    h[j] = [a - q * b for a, b in zip(h[j], pc)]
                    if h[j][row] != 0:
                        done = False
            if done:
                break
        pc = h[pivot_col]
        if pc[row] != 0:
            if pc[row] < 0:
                pc = h[pivot_col] = [-a for a in pc]
            p = pc[row]
            for j in range(pivot_col):
                q = h[j][row] // p
                if q:
                    h[j] = [a - q * b for a, b in zip(h[j], pc)]
            pivot_col += 1
    return [c for c in h if any(c)]


def _over_identity(m: IntMatrix) -> list:
    """Columns of ``m`` stacked over the identity: ``[m; I]``."""
    return [m.column(j) + tuple(int(i == j) for i in range(m.cols)) for j in range(m.cols)]


def hermite_normal_form(m: IntMatrix):
    """Column Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``h = m * u``: columns in
    echelon order (pivot rows strictly increasing), pivots positive, and in a
    pivot row every entry to the left of the pivot reduced into ``[0, pivot)``.
    Zero columns are pushed to the right, so the nonzero columns are a
    canonical basis of the column span.  The echelon runs on ``[m; I]`` over
    the rows of ``m``; the identity rows end as ``u``.
    """
    cols = _echelon(_over_identity(m), m.rows)
    return (IntMatrix.from_columns([c[: m.rows] for c in cols], m.rows),
            IntMatrix.from_columns([c[m.rows:] for c in cols], m.cols))


def smith_normal_form(m: IntMatrix):
    """Smith normal form: returns ``(s, u, v, w)`` with ``s = u*m*v``
    diagonal, ``u, v`` unimodular, ``w`` the inverse of ``u``, and
    nonnegative diagonal in a divisibility chain.

    Pivots are chosen with minimal absolute value to control entry growth;
    the output is canonical independently of that strategy.  Each row
    operation on ``u`` is applied to ``w`` as the inverse column operation,
    so ``u * w = I`` throughout; ``w`` is kept as its list of columns.
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    w = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(dst, src, q):
        if q:
            a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]
            w[src] = [x + q * y for x, y in zip(w[src], w[dst])]

    def col_sub(dst, src, q):
        if q:
            for i in range(nr):
                a[i][dst] -= q * a[i][src]
            for i in range(nc):
                v[i][dst] -= q * v[i][src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def col_swap(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while True:
        pivots = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j] != 0]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        row_swap(t, pi)
        col_swap(t, pj)
        clean = True
        for i in range(t + 1, nr):
            if a[i][t]:
                row_sub(i, t, a[i][t] // a[t][t])
                if a[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if a[t][j]:
                col_sub(j, t, a[t][j] // a[t][t])
                if a[t][j]:
                    clean = False
        if not clean:
            continue
        # pivot must divide the remaining block for the chain to come out right
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
            w[t] = [-x for x in w[t]]
        t += 1

    return (IntMatrix.from_rows(a, nc), IntMatrix.from_rows(u, nr), IntMatrix.from_rows(v, nc),
            IntMatrix.from_columns(w, nr))


def _preimage_basis(m: IntMatrix, rel_cols=()) -> IntMatrix:
    """Basis of ``{x : m*x in the span of rel_cols}``, columns in HNF.

    One echelon of ``[[m, rel], [I, 0]]`` on all its rows clears the top
    block first, so the columns whose top vanishes are ``(0, x)`` with
    ``m*x + rel*y = 0`` for some ``y``.  They span every such ``x`` because
    the column operations are unimodular (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4), and their lower blocks come out in column
    HNF, the canonical basis of the lattice they span.
    """
    top = m.rows
    cols = _over_identity(m) + [tuple(c) + (0,) * m.cols for c in rel_cols]
    return IntMatrix.from_columns([c[top:] for c in _echelon(cols, top + m.cols)
                                   if not any(c[:top])], m.cols)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel ``{x : m*x = 0}``, columns in HNF."""
    return _preimage_basis(m)


# ---------------------------------------------------------------------------
# lattices


def _int_list(values, what: str) -> list:
    """``values`` as a list, refusing any entry whose type is not ``int``: a
    float, which ``int`` would truncate, or a bool."""
    values = list(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, not {x!r}")
    return values


@dataclass(frozen=True)
class Lattice:
    """Sublattice of ``Z^ambient_rank`` with basis columns in column HNF."""

    ambient_rank: int
    basis: IntMatrix

    @staticmethod
    def from_columns(ambient_rank: int, cols) -> "Lattice":
        h, _ = hermite_normal_form(IntMatrix.from_columns(cols, ambient_rank))
        keep = [c for c in h.columns() if any(x != 0 for x in c)]
        return Lattice(ambient_rank, IntMatrix.from_columns(keep, ambient_rank))

    @staticmethod
    def full(ambient_rank: int) -> "Lattice":
        return Lattice(ambient_rank, IntMatrix.identity(ambient_rank))

    @property
    def rank(self) -> int:
        return self.basis.cols

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v) -> tuple | None:
        """Coordinates of ``v`` in the basis, or ``None`` when ``v`` is not in
        the lattice: back-substitution along the pivot rows of the echelon
        basis, each of which fixes one coordinate.  An entry that is not an
        ``int`` raises ``ValueError``."""
        r = _int_list(v, "vector entries")
        if len(r) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        x = []
        last = -1
        for col in self.basis.columns():
            p = next((i for i, a in enumerate(col) if a), -1)
            if p <= last:
                raise ValueError("lattice basis is not in echelon form")
            last = p
            q, rem = divmod(r[p], col[p])
            if rem:
                return None
            if q:
                r = [a - q * b for a, b in zip(r, col)]
            x.append(q)
        return None if any(r) else tuple(x)

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(c) for c in other.basis.columns())

    def sum(self, other: "Lattice") -> "Lattice":
        return Lattice.from_columns(self.ambient_rank,
                                    self.basis.columns() + other.basis.columns())

    def intersection(self, other: "Lattice") -> "Lattice":
        """The basis of ``self`` applied to the coordinates ``x`` with
        ``basis * x`` in ``other``."""
        if other.ambient_rank != self.ambient_rank:
            raise ValueError("ambient rank mismatch")
        coords = _preimage_basis(self.basis, other.basis.columns())
        return Lattice.from_columns(self.ambient_rank, self.basis.mul(coords).columns())


def saturation(l: Lattice) -> Lattice:
    """Largest sublattice of the ambient with the same rational span as ``l``."""
    # fast paths: l = 0 (tori), and l of full rank (every semisimple group)
    if l.rank == 0:
        return l
    perp = kernel_basis(l.basis.transpose())          # functionals vanishing on l
    if perp.cols == 0:
        return Lattice.full(l.ambient_rank)
    sat = kernel_basis(perp.transpose())              # everything they vanish on
    return Lattice.from_columns(l.ambient_rank, sat.columns())


def solve_congruence_sublattice(ambient_rank: int, conditions) -> Lattice:
    """Sublattice ``{v in Z^n : f*v = 0 mod m for every (f, m) in conditions}``.

    Modulus 0 encodes an exact vanishing condition (the paper's non-locally
    projective case delta(C/S) = 0), modulus 1 a vacuous one.

    The lattice depends only on the Z-span of the functionals of each
    modulus, so after the checks each modulus keeps the echelon basis of its
    functionals (at most ``n`` of them) and modulus 1 drops out; the
    lattice is then the preimage of ``diag(m) Z^k`` under the ``k`` kept
    functionals, whose size grows with ``n``, not with the number of
    conditions.  An entry or modulus that is not an ``int`` raises
    ``ValueError``.
    """
    by_modulus: dict = {}
    for f, m in conditions:
        f = _int_list(f, "functional entries")
        if len(f) != ambient_rank:
            raise ValueError("functional length does not match ambient rank")
        if type(m) is not int:
            raise ValueError(f"moduli must be integers, not {m!r}")
        if m < 0:
            raise ValueError("modulus must be nonnegative")
        if m != 1:
            by_modulus.setdefault(m, []).append(f)
    conditions = [(f, m) for m, fs in sorted(by_modulus.items())
                  for f in _echelon(fs, ambient_rank)]
    funcs = IntMatrix.from_rows([f for f, _ in conditions], ambient_rank)
    rel = [tuple(m if i == j else 0 for i in range(funcs.rows))
           for j, (_, m) in enumerate(conditions) if m]
    return Lattice(ambient_rank, _preimage_basis(funcs, rel))


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FGAbelianGroup:
    """Canonical form ``Z^free_rank + Z/d_1 + ... + Z/d_k`` with ``d_1 | ... | d_k``.

    Two groups are isomorphic iff the two fields are equal.
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        # exactly int, as in ``_int_list``: a bool or a float is no rank or order
        if type(self.free_rank) is not int or self.free_rank < 0:
            raise ValueError(f"free rank must be an int >= 0, not {self.free_rank!r}")
        for d in self.torsion:
            if type(d) is not int or d < 2:
                raise ValueError(f"invariant factors must be ints >= 2, not {d!r}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @staticmethod
    def trivial() -> "FGAbelianGroup":
        return FGAbelianGroup(0, ())

    @staticmethod
    def free(rank: int) -> "FGAbelianGroup":
        return FGAbelianGroup(rank, ())

    @staticmethod
    def cyclic(n: int) -> "FGAbelianGroup":
        n = abs(n)
        if n == 0:
            return FGAbelianGroup(1, ())
        if n == 1:
            return FGAbelianGroup(0, ())
        return FGAbelianGroup(0, (n,))

    @staticmethod
    def direct_sum(*parts) -> "FGAbelianGroup":
        free = sum(p.free_rank for p in parts)
        factors = [d for p in parts for d in p.torsion]
        return _canonical_from_factors(free, factors)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or ``None`` when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)


def _canonical_from_factors(free_rank: int, factors) -> FGAbelianGroup:
    """Canonicalize an arbitrary list of cyclic orders into invariant factors.

    Each order is merged into a divisibility chain by replacing the pair
    ``Z/c + Z/d`` with ``Z/gcd(c, d) + Z/lcm(c, d)`` along the chain, so no
    order is ever factored.
    """
    chain: list = []
    for d in map(abs, factors):
        if d == 0:
            free_rank += 1
        elif d > 1:
            for i, c in enumerate(chain):
                chain[i], d = gcd(c, d), lcm(c, d)
            chain.append(d)
    return FGAbelianGroup(free_rank, tuple(c for c in chain if c > 1))


def group_from_relations(rank: int, relations: IntMatrix) -> FGAbelianGroup:
    """Canonical form of ``Z^rank`` modulo the column span of ``relations``."""
    if relations.rows != rank:
        raise ValueError("relation matrix has wrong number of rows")
    s, _, _, _ = smith_normal_form(relations)
    diags = [s[i, i] for i in range(min(s.rows, s.cols))]
    nonzero = [d for d in diags if d != 0]
    free = rank - len(nonzero)
    return _canonical_from_factors(free, nonzero)


def canonical_generators(rank: int, relations: IntMatrix):
    """Generators of ``Z^rank`` modulo the columns of ``relations`` matching
    its canonical form: free generators first, then torsion generators in
    invariant-factor order.

    Returns ``(group, gens, proj, orders)``: the canonical group, the
    generator lifts as columns of ``gens``, the coordinate map ``proj`` (so
    ``proj * gens`` is the identity modulo ``orders``), and the order of each
    generator (0 for a free one).  The lifts are columns of the inverse of
    the Smith transform ``u``, the coordinate map is rows of ``u``.
    """
    if relations.rows != rank:
        raise ValueError("relation matrix has wrong number of rows")
    s, u, _, uinv = smith_normal_form(relations)
    diags = [s[i, i] for i in range(min(rank, relations.cols))]
    free_idx = [i for i in range(rank) if i >= len(diags) or diags[i] == 0]
    tors_idx = sorted((i for i in range(len(diags)) if diags[i] >= 2), key=lambda i: diags[i])
    order_idx = free_idx + tors_idx
    gens = IntMatrix.from_columns([uinv.column(i) for i in order_idx], rank)
    proj = IntMatrix.from_rows([u.row(i) for i in order_idx], rank)
    torsion = tuple(diags[i] for i in tors_idx)
    orders = (0,) * len(free_idx) + torsion
    return FGAbelianGroup(len(free_idx), torsion), gens, proj, orders


def quotient_group(ambient: Lattice, sub: Lattice) -> FGAbelianGroup:
    """Canonical form of ``ambient / sub`` for a sublattice ``sub``."""
    coords = []
    for c in sub.basis.columns():
        x = ambient.coordinates(c)
        if x is None:
            raise ValueError("not a sublattice of the ambient")
        coords.append(x)
    return group_from_relations(ambient.rank, IntMatrix.from_columns(coords, ambient.rank))


# ---------------------------------------------------------------------------
# quotients by a relation lattice (NS groups and their cokernels)


def subgroup_generators(ambient_rank: int, generator_cols, relations: IntMatrix):
    """The subgroup of ``Z^ambient_rank / relations`` generated by the given
    coset representatives, with canonical generators.

    Returns ``(group, key, gens)``: the canonical group, ``key`` the HNF
    basis of generators + relations (so two computations of one subgroup
    compare equal), and ``gens = key * canonical``, the generator lifts as
    columns.  The relations enter :func:`canonical_generators` as their
    coordinates in ``key``, column by column in the given order.
    """
    key = Lattice.from_columns(ambient_rank, list(generator_cols) + relations.columns())
    rel = IntMatrix.from_columns([key.coordinates(c) for c in relations.columns()], key.rank)
    group, canonical, _, _ = canonical_generators(key.rank, rel)
    return group, key.basis, key.basis.mul(canonical)


def preimage_lattice(m: IntMatrix, rel: Lattice) -> Lattice:
    """Lattice ``{v : m*v lies in rel}``."""
    if m.rows != rel.ambient_rank:
        raise ValueError("codomain mismatch")
    return Lattice(m.cols, _preimage_basis(m, rel.basis.columns()))


def hom_cokernel(m: IntMatrix, rel: Lattice) -> FGAbelianGroup:
    """Canonical ``Z^rows / (column span of m + rel)``."""
    return group_from_relations(rel.ambient_rank, m.hstack(rel.basis))


# ---------------------------------------------------------------------------
# exact rational helpers


def rational_coordinates(m: IntMatrix, b: IntMatrix):
    """``m^-1 * b`` for a nonsingular square ``m``, as integer numerators over
    one common denominator.

    Returns ``(x, d)`` with ``x`` an integer matrix and ``d >= 1`` the least
    integer with ``m * x = d * b``.  With ``s = u * m * v`` the Smith normal
    form and ``e`` its last invariant factor, ``e * m^-1 = v * diag(e/s_i) * u``
    is integral, so ``x`` is that times ``b`` divided through by the gcd of
    ``e`` and its entries.  Raises ``ValueError`` when ``m`` is singular.
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("rational coordinates need a square matrix")
    s, u, v, _ = smith_normal_form(m)
    diag = [s[i, i] for i in range(n)]
    if 0 in diag:
        raise ValueError("matrix is singular")
    e = diag[-1] if n else 1
    ub = u.mul(b)
    x = v.mul(IntMatrix(n, b.cols, tuple(tuple(e // si * a for a in row)
                                          for si, row in zip(diag, ub.entries))))
    g = gcd(e, *(a for row in x.entries for a in row))
    return IntMatrix(n, b.cols, tuple(tuple(a // g for a in row) for row in x.entries)), e // g


def divide_exactly(m: IntMatrix, denom: int, failure: str) -> IntMatrix:
    """``m / denom``, raising ``ArithmeticError(failure)`` unless it is integral."""
    if any(x % denom for row in m.entries for x in row):
        raise ArithmeticError(failure)
    return IntMatrix(m.rows, m.cols, tuple(tuple(x // denom for x in row) for row in m.entries))
