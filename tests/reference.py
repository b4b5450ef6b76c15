"""Reference algorithms the tests check the library against.

No engine, the CLI or the benchmark calls these: ``solve`` works on any
matrix through the Smith normal form, ``rational_solve`` by Gaussian
elimination over ``Fraction``, and ``cokernel`` of a ``GroupHom`` on the
generators of two canonical groups.
"""

from dataclasses import dataclass
from fractions import Fraction

from bunpic.exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    group_from_relations,
    smith_normal_form,
)


def solve(m: IntMatrix, b) -> tuple | None:
    """One integer solution of ``m*x = b``, or ``None`` if there is none.

    Works on any matrix, through the Smith normal form.  The library solves
    in HNF bases with ``Lattice.coordinates``; this is the reference the
    tests check spans and coordinates against.
    """
    s, u, v = smith_normal_form(m)
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


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between groups in canonical form, as a matrix on generators.

    Generator ordering matches ``FGAbelianGroup.relation_matrix``: free
    generators first, then torsion generators in invariant-factor order.
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
    """Canonical ``target / im(f)``: stack f with the target relations, take SNF."""
    stacked = f.matrix.hstack(f.target.relation_matrix())
    return group_from_relations(f.target.ngens, stacked)
