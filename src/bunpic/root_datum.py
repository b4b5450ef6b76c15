"""Root data of reductive groups: named constructions, fundamental groups,
and the lattice cross diagram relating G to D(G), G^ab, G^ss, G^sc, G^ad.

Conventions, fixed once for determinism:

* a group is stored by its cocharacter lattice ``Z^n`` together with the
  simple coroots (columns, in that basis) and the simple roots (columns, in
  the dual basis), so ``root_i . coroot_j`` is the Cartan entry
  ``<alpha_i, alpha_j^vee>``;
* the isogeny of a named factor fixes its basis: simply connected factors
  use the simple coroots (coroots = I, roots = C^T), adjoint factors the
  fundamental coweights (coroots = C, roots = I), and GL(n), SO(2n) and
  T(n) the standard ``Z^n`` (coroots = roots = e_i - e_{i+1}, with
  e_{n-1} + e_n last for D_n).
"""

from __future__ import annotations

import functools
import json
import re
import sys
from math import gcd

from .exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    canonical_generators,
    divide_exactly,
    kernel_basis,
    saturation,
    smith_normal_form,
)
from .record import MISSING, record


class InvalidSpec(ValueError):
    """Malformed group name or invalid rank in a named construction."""


class ParseError(ValueError):
    """Syntax error in a group spec string; carries position and expectation."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotInLattice(ValueError):
    """Vector claimed to lie in a lattice does not."""


class InputError(ValueError):
    """Outside input (a flag, a run config, a JSON file) of the wrong form."""


ECHO_LIMIT = 200


def echo(text: str) -> str:
    """``text``, outside input echoed in an error message, cut to its first
    ``ECHO_LIMIT`` characters, so one bad input gives a short message."""
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text) - ECHO_LIMIT} more characters cut)"


# an integer in outside text: optional surrounding whitespace, an optional
# sign, then ASCII digits; ``int`` alone would also read "1_0" and the
# digits of other scripts
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def too_many_digits(what: str) -> InputError:
    """The error for an integer past the interpreter's int -> str limit."""
    return InputError(f"{what} holds an integer of more than "
                      f"{sys.get_int_max_str_digits()} digits")


def int_tuple(values, what: str) -> tuple:
    """``values`` as ints: an int stays, a string of the ``_INTEGER`` grammar
    is read, and any other entry (a float, which ``int`` would truncate, or
    a string such as "1_0") is an InputError, as is a string of more digits
    than the interpreter reads."""
    values = tuple(values)
    for x in values:
        if not (type(x) is int or type(x) is str and _INTEGER.fullmatch(x)):
            raise InputError(f"{what} must be integers, not {echo(repr(x))}")
    try:
        return tuple(int(x) for x in values)
    except ValueError:
        raise too_many_digits(what) from None


# ---------------------------------------------------------------------------
# simple types and Cartan data


_FAMILY_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}


@record
class SimpleType:
    """Irreducible Dynkin type, e.g. A3, D4, E8."""

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family
        if fam not in _FAMILY_MIN_RANK:
            raise InvalidSpec(f"unknown family {fam!r}")
        if self.rank < _FAMILY_MIN_RANK[fam]:
            raise InvalidSpec(f"{fam}{self.rank}: rank too small")
        if fam == "E" and self.rank not in (6, 7, 8):
            raise InvalidSpec("E only exists in ranks 6, 7, 8")
        if fam == "F" and self.rank != 4:
            raise InvalidSpec("F only exists in rank 4")
        if fam == "G" and self.rank != 2:
            raise InvalidSpec("G only exists in rank 2")

    def __str__(self):
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(s: str) -> "SimpleType":
        m = re.fullmatch(r"([A-G])([0-9]+)", s.strip())
        if not m:
            raise InvalidSpec(f"cannot parse simple type {echo(repr(s))}")
        return SimpleType(m.group(1), _rank_int(m.group(2)))


def cartan_matrix(t: SimpleType) -> IntMatrix:
    """Cartan matrix with entries C[i][j] = <alpha_i, alpha_j^vee>."""
    n = t.rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    fam = t.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B" and n >= 2:
            c[n - 2][n - 1] = -2          # long alpha_{n-1} against short coroot
        if fam == "C" and n >= 2:
            c[n - 1][n - 2] = -2          # long alpha_n against short coroots
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4.
        bonds = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            bonds.append((5, 6))
        if n == 8:
            bonds.append((6, 7))
        for i, j in bonds:
            bond(i, j)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, cij=-2, cji=-1)
        bond(2, 3)
    elif fam == "G":
        bond(0, 1, cij=-1, cji=-3)        # alpha_1 short, alpha_2 long
    return IntMatrix.from_rows(c)


def coroot_lengths(t: SimpleType) -> tuple:
    """Half square-lengths b(a_i^vee, a_i^vee)/2 of the simple coroots for the
    basic inner product (short coroots normalized to square length 2)."""
    n = t.rank
    if t.family == "B":
        return tuple([1] * (n - 1) + [2])
    if t.family == "C":
        return tuple([2] * (n - 1) + [1])
    if t.family == "F":
        return (1, 1, 2, 2)
    if t.family == "G":
        return (3, 1)
    return tuple([1] * n)


# ---------------------------------------------------------------------------
# reductive group data


@record
class ReductiveGroupData:
    """Root datum of a (split) reductive group.

    ``simple_coroots`` columns live in the cocharacter lattice ``Z^n``; the
    ``simple_roots`` columns live in the dual basis, so that
    ``simple_roots.column(i) . simple_coroots.column(j)`` is the Cartan entry.
    """

    cochar_rank: int
    simple_coroots: IntMatrix
    simple_roots: IntMatrix
    factor_types: tuple
    label: str = ""

    def __post_init__(self):
        n = self.cochar_rank
        m = sum(t.rank for t in self.factor_types)
        if self.simple_coroots.cols != m or self.simple_roots.cols != m:
            raise InvalidSpec("number of coroots must equal the sum of factor ranks")
        if self.simple_coroots.rows != n or self.simple_roots.rows != n:
            raise InvalidSpec("coroot/root coordinates must have cochar_rank entries")
        if m > n:
            raise InvalidSpec("semisimple rank exceeds cocharacter rank")
        # pairing must reproduce the block Cartan matrix
        expected = _block_cartan(self.factor_types)
        pairing = self.simple_roots.transpose().mul(self.simple_coroots)
        if pairing != expected:
            raise InvalidSpec("pairing of roots and coroots is not the Cartan matrix")
        if m and kernel_basis(self.simple_coroots).cols:
            raise InvalidSpec("coroots must be linearly independent")

    @property
    def ss_rank(self) -> int:
        return self.simple_coroots.cols

    @property
    def is_torus(self) -> bool:
        return self.ss_rank == 0

    @property
    def is_semisimple(self) -> bool:
        return self.ss_rank == self.cochar_rank

    def factor_blocks(self) -> list:
        """Index ranges of the simple factors inside 1..ss_rank."""
        blocks = []
        start = 0
        for t in self.factor_types:
            blocks.append(range(start, start + t.rank))
            start += t.rank
        return blocks

    def coroot_lattice(self) -> Lattice:
        return Lattice.from_columns(self.cochar_rank, self.simple_coroots.columns())

    def adjoint_coordinates(self, v) -> tuple:
        """Image of a cocharacter in Lambda(T_Gad) = Z^ss_rank, written in the
        fundamental-coweight basis: the vector of pairings <alpha_i, v>."""
        return self.simple_roots.transpose().mul_vector(tuple(v))

    def __str__(self):
        return self.label or "*".join(str(t) for t in self.factor_types) or f"T({self.cochar_rank})"


def once_per_group(fn):
    """Compute ``fn(g, *args)`` once per group object and arguments, and keep
    it on the object.

    A ``ReductiveGroupData`` is immutable, so a value computed from the group
    and fixed arguments stays valid for the object's life.  Each function has
    one slot, in the instance ``__dict__`` under the function's dotted name
    (which no field can shadow), holding the arguments of the latest call
    and its value: a call with the same arguments reads it, a call with
    others recomputes and replaces it.  So a caller sweeping many arguments
    over one group keeps one value per function, not one per argument
    tuple.  The arguments are ints and tuples of ints (a lift of delta, a
    genus), compared with ``==``.  ``==``, ``hash`` and ``group_to_json``
    read only the declared fields.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def once(g: ReductiveGroupData, *args):
        slot = g.__dict__.get(key)
        if slot is None or slot[0] != args:
            slot = g.__dict__[key] = (args, fn(g, *args))
        return slot[1]

    return once


def _block_diagonal(mats) -> IntMatrix:
    """The block-diagonal matrix with blocks ``mats``, in order."""
    cols = sum(m.cols for m in mats)
    rows, ofs = [], 0
    for m in mats:
        rows += [(0,) * ofs + row + (0,) * (cols - ofs - m.cols) for row in m.entries]
        ofs += m.cols
    return IntMatrix(len(rows), cols, tuple(rows))


def _block_cartan(types) -> IntMatrix:
    return _block_diagonal([cartan_matrix(t) for t in types])


# ---------------------------------------------------------------------------
# named constructions


@record
class GroupFactor:
    name: str
    param: int | None = None

    def __str__(self):
        return self.name if self.param is None else f"{self.name}({self.param})"


@record
class GroupSpec:
    """Parsed product of named factors; printing reparses to an equal value."""

    factors: tuple

    def __str__(self):
        return "*".join(str(f) for f in self.factors)


# Largest cocharacter rank accepted from outside input (named specs and raw
# data).  A full torus report grows about as rank^3 (T(20) takes seconds on a
# small machine), so a larger rank fails fast instead of stalling a run.
MAX_COCHAR_RANK = 20

# NAME(p) -> (Dynkin family, rank, cocharacter rank, isogeny), the isogeny
# being simply connected "sc", adjoint "ad" or the standard Z^n "std" (see the
# module docstring; in SO(2n) the index 2 of the coroot lattice realizes
# pi_1(SO) = Z/2).  Rank 0 is no simple factor; Spin(4) and SO(4) = D2 stay
# out as SimpleType refuses them, and Sp, PSp and PSO also refuse an odd p.
_NAMED = {
    "SL": lambda p: ("A", p - 1, p - 1, "sc"),
    "GL": lambda p: ("A", p - 1, p, "std"),
    "PGL": lambda p: ("A", p - 1, p - 1, "ad"),
    "Sp": lambda p: ("C", p // 2, p // 2, "sc"),
    "PSp": lambda p: ("C", p // 2, p // 2, "ad"),
    "Spin": lambda p: ("B" if p % 2 else "D", p // 2, p // 2, "sc"),
    "SO": lambda p: ("B", p // 2, p // 2, "ad") if p % 2 else ("D", p // 2, p // 2, "std"),
    "PSO": lambda p: ("D", p // 2, p // 2, "ad"),
    "T": lambda p: ("", 0, p, "std"),
}
_EVEN_ONLY = ("Sp", "PSp", "PSO")
_EXCEPTIONAL = {"E6sc": ("E", 6, 6, "sc"), "E6ad": ("E", 6, 6, "ad"), "E7sc": ("E", 7, 7, "sc"),
                "E7ad": ("E", 7, 7, "ad"), "E8": ("E", 8, 8, "sc"), "F4": ("F", 4, 4, "sc"),
                "G2": ("G", 2, 2, "sc")}


def _check_cochar_rank(n: int) -> None:
    if n < 0:
        raise InvalidSpec(f"cocharacter rank {n} is negative")
    if n > MAX_COCHAR_RANK:
        raise InvalidSpec(f"cocharacter rank {n} exceeds the limit "
                          f"MAX_COCHAR_RANK = {MAX_COCHAR_RANK}")


def _rank_int(digits: str) -> int:
    """A rank written in ASCII digits, as an int.  Past the interpreter's
    int -> str limit (``sys.get_int_max_str_digits``, leading zeros aside)
    it is far above ``MAX_COCHAR_RANK``: InvalidSpec says so without
    echoing it."""
    digits = digits.lstrip("0") or "0"
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise InvalidSpec(f"a rank of more than {limit} digits exceeds the limit "
                          f"MAX_COCHAR_RANK = {MAX_COCHAR_RANK}")
    return int(digits)


def _factor_shape(f: GroupFactor):
    """``(simple types, cocharacter rank, isogeny)`` of a named factor, read
    off the table without building a matrix; InvalidSpec for a parameter the
    name does not take."""
    if f.param is None:
        family, rank, n, isogeny = _EXCEPTIONAL[f.name]
    else:
        family, rank, n, isogeny = _NAMED[f.name](f.param)
        if n < 1 or f.param % 2 and f.name in _EVEN_ONLY:
            raise InvalidSpec(f"invalid rank {f.param} for {f.name}")
    return (SimpleType(family, rank),) if rank else (), n, isogeny


def parse_group_spec(s: str) -> GroupSpec:
    """Parse ``FACTOR ("*" FACTOR)*`` where FACTOR is NAME(INT) or an
    exceptional name; whitespace insensitive. Rank constraints are validated,
    and a total cocharacter rank above ``MAX_COCHAR_RANK`` raises InvalidSpec."""
    # integers, words and single other characters with their positions; the
    # empty token marks the end
    tokens = [(m.group(), m.start()) for m in re.finditer(r"[0-9]+|\w+|\S", s)] + [("", len(s))]
    factors, total, i = [], 0, 0

    def take(ok, message: str) -> str:
        """The next token if ``ok`` holds of it, else ParseError at it."""
        nonlocal i
        token, at = tokens[i]
        if not ok(token):
            raise ParseError(message, at)
        i += 1
        return token

    while True:
        name = take(lambda t: re.fullmatch(r"[A-Za-z]\w*", t), "expected a group name")
        if name in _EXCEPTIONAL:
            factor = GroupFactor(name)
        else:
            if name not in _NAMED:
                raise ParseError(f"unknown group name {echo(repr(name))}", tokens[i - 1][1])
            take(lambda t: t == "(", f"{name} requires a parenthesized rank")
            rank = take(lambda t: re.fullmatch("[0-9]+", t), "expected an integer rank")
            try:
                factor = GroupFactor(name, _rank_int(rank))
            except InvalidSpec as exc:
                raise ParseError(str(exc), tokens[i - 1][1]) from None
            take(lambda t: t == ")", "expected ')'")
        try:
            total += _factor_shape(factor)[1]
        except InvalidSpec:
            raise ParseError(f"invalid rank {factor.param} for {name}",
                             tokens[i - 1][1] + 1) from None
        factors.append(factor)
        if not take(lambda t: t in ("*", ""), "expected '*' between factors"):
            break
    _check_cochar_rank(total)
    return GroupSpec(tuple(factors))


def _factor_datum(f: GroupFactor) -> ReductiveGroupData:
    types, n, isogeny = _factor_shape(f)
    if isogeny == "sc":
        coroots, roots = IntMatrix.identity(n), cartan_matrix(types[0]).transpose()
    elif isogeny == "ad":
        coroots, roots = cartan_matrix(types[0]), IntMatrix.identity(n)
    else:
        cols = [[(r == i) - (r == i + 1) for r in range(n)] for t in types for i in range(t.rank)]
        if types and types[0].family == "D":
            cols[-1] = [int(r >= n - 2) for r in range(n)]
        coroots = roots = IntMatrix.from_columns(cols, n)
    return ReductiveGroupData(n, coroots, roots, types, label=str(f))


def product(*groups: ReductiveGroupData, label: str = "") -> ReductiveGroupData:
    """Block-diagonal product of root data."""
    return ReductiveGroupData(
        sum(g.cochar_rank for g in groups),
        _block_diagonal([g.simple_coroots for g in groups]),
        _block_diagonal([g.simple_roots for g in groups]),
        tuple(t for g in groups for t in g.factor_types),
        label=label or "*".join(str(g) for g in groups),
    )


def build_group(spec) -> ReductiveGroupData:
    """Build the named reductive group; ``spec`` is a GroupSpec or a string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    data = [_factor_datum(f) for f in spec.factors]
    if len(data) == 1:
        return data[0]
    return product(*data, label=str(spec))


_KIND_NAMES = {int: ("an integer", "integers"), bool: ("a boolean", "booleans"),
               str: ("a string", "strings"), dict: ("an object", "objects"), None: ("null", "nulls")}


def _has_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_has_kind(value, k) for k in kind)
    if isinstance(kind, list):
        return type(value) is list and all(_has_kind(x, kind[0]) for x in value)
    return value is None if kind is None else type(value) is kind


def _kind_name(kind, plural: bool = False) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_kind_name(k, plural) for k in kind)
    if isinstance(kind, list):
        return ("lists of " if plural else "a list of ") + _kind_name(kind[0], True)
    return _KIND_NAMES[kind][plural]


def _shown(value) -> str:
    """``value`` as JSON text for an error message, cut by ``echo``."""
    try:
        return echo(json.dumps(value))
    except RecursionError:      # parsed near the recursion limit, too deep to print
        return "a value nested too deeply"


def json_field(obj: dict, key: str, kind, default=MISSING):
    """``obj[key]`` if it already has the JSON type ``kind``, else InputError;
    a missing key gives ``default``, or InputError when there is none.

    A kind is ``int``, ``bool``, ``str``, ``dict``, ``None`` (null), ``[k]`` (a
    list of items of kind ``k``) or a tuple of kinds, any one of which will do.
    Types are exact: neither ``true`` nor ``2.0`` is an integer."""
    if key not in obj:
        if default is MISSING:
            raise InputError(f"missing key {key!r}")
        return default
    value = obj[key]
    if not _has_kind(value, kind):
        raise InputError(f"{key} must be {_kind_name(kind)}, not {_shown(value)}")
    return value


def json_object(obj, what: str, keys) -> dict:
    """``obj`` if it is a JSON object with no key outside ``keys``, else InputError."""
    if type(obj) is not dict:
        raise InputError(f"{what} must be an object, not {_shown(obj)}")
    for key in obj:
        if key not in keys:
            raise InputError(f"unknown key {echo(repr(key))} in {what}; "
                             f"known keys: {', '.join(keys)}")
    return obj


def group_from_json(obj) -> ReductiveGroupData:
    """Raw root-datum import: {"cochar_rank": n, "simple_coroots": [[..]], "simple_roots":
    [[..]], "factor_types": ["A3", ...], "label": optional}; vectors are columns."""
    json_object(obj, "root datum", ("cochar_rank", "simple_coroots", "simple_roots",
                                    "factor_types", "label"))
    n = json_field(obj, "cochar_rank", int)
    _check_cochar_rank(n)
    coroots = json_field(obj, "simple_coroots", [[int]])
    roots = json_field(obj, "simple_roots", [[int]])
    types = tuple(SimpleType.parse(t) for t in json_field(obj, "factor_types", [str]))
    return ReductiveGroupData(n, IntMatrix.from_columns(coroots, n),
                              IntMatrix.from_columns(roots, n), types,
                              label=json_field(obj, "label", str, ""))


def group_to_json(g: ReductiveGroupData) -> dict:
    return {
        "cochar_rank": g.cochar_rank,
        "simple_coroots": [list(c) for c in g.simple_coroots.columns()],
        "simple_roots": [list(c) for c in g.simple_roots.columns()],
        "factor_types": [str(t) for t in g.factor_types],
        "label": g.label,
    }


# ---------------------------------------------------------------------------
# fundamental group


@record
class Pi1Presentation:
    """pi_1(G) = Lambda(T_G)/Lambda_coroots with a fixed generator system:
    free generators first, then torsion generators in invariant-factor order.
    One per group object, from :func:`pi1_presentation`."""

    group: FGAbelianGroup
    gens: IntMatrix            # cochar_rank x ngens, generator lifts as columns
    proj: IntMatrix            # ngens x cochar_rank, coordinate map
    orders: tuple              # 0 for free, d for torsion

    def coords(self, v) -> tuple:
        return self.reduce(self.proj.mul_vector(tuple(v)))

    def lift(self, coords) -> tuple:
        return self.gens.mul_vector(tuple(coords))

    def reduce(self, coords) -> tuple:
        if len(coords) != self.group.ngens:
            raise ValueError(
                f"delta needs {self.group.ngens} coordinates for pi1 = {self.group.describe()}"
            )
        return tuple(x % d if d else x for x, d in zip(coords, self.orders))


@once_per_group
def pi1_presentation(g: ReductiveGroupData) -> Pi1Presentation:
    """The canonical presentation of pi_1(G), computed once per group."""
    return Pi1Presentation(*canonical_generators(g.cochar_rank, g.simple_coroots))


def fundamental_group(g: ReductiveGroupData) -> FGAbelianGroup:
    """Canonical form of pi_1(G) = Lambda(T_G)/Lambda_coroots."""
    return pi1_presentation(g).group


@record
class Pi1Element:
    """Class in pi_1(G), stored as coordinates in the canonical generators of
    the group's :func:`pi1_presentation`; :meth:`lift` is the one lift
    policy, which every engine taking a lift of delta calls."""

    group: ReductiveGroupData
    coords: tuple

    @property
    def presentation(self) -> Pi1Presentation:
        return pi1_presentation(self.group)

    @staticmethod
    def from_coords(g: ReductiveGroupData, coords) -> "Pi1Element":
        return Pi1Element(g, pi1_presentation(g).reduce(int_tuple(coords, "delta coordinates")))

    @staticmethod
    def zero(g: ReductiveGroupData) -> "Pi1Element":
        return Pi1Element(g, (0,) * pi1_presentation(g).group.ngens)

    @staticmethod
    def from_cocharacter(g: ReductiveGroupData, d) -> "Pi1Element":
        return Pi1Element(g, pi1_presentation(g).coords(d))

    def lift(self, lift=None, generic: bool = False) -> tuple:
        """``lift`` as ints, checked (``ValueError`` unless it has ``cochar_rank``
        integer entries and represents this class); without one, the
        canonical lift, or :func:`generic_lift` when ``generic`` is true."""
        if lift is not None:
            d = int_tuple(lift, "lift entries")
            if len(d) != self.group.cochar_rank:
                raise ValueError(f"a lift of delta needs {self.group.cochar_rank} coordinates")
            if self.presentation.coords(d) != self.coords:
                raise ValueError("lift does not represent delta")
            return d
        if generic:
            return generic_lift(self.group, self)
        return self.presentation.lift(self.coords)


# ---------------------------------------------------------------------------
# cross diagram


@record
class CrossDiagram:
    """Lattice-level cross diagram of a reductive group.

    All semisimple-side lattices are presented inside Lambda(T_Gad) = Z^m in
    fundamental-coweight coordinates; the map from Lambda(T_G) to it is
    ``adjoint_coordinates`` (pairing with the simple roots), whose kernel is
    the radical lattice.
    """

    group: ReductiveGroupData
    derived_lattice: Lattice          # Lambda(T_D(G)) inside Lambda(T_G)
    derived_simply_connected: bool    # D(G) simply connected: derived = coroot lattice
    radical_lattice: Lattice          # Lambda(T_R(G)) inside Lambda(T_G)
    ab_rank: int                      # rank of Lambda(G^ab)
    ab_projection: IntMatrix          # Lambda(T_G) ->> Lambda(G^ab) = Z^ab_rank
    ab_section: IntMatrix             # fixed splitting Lambda(G^ab) -> Lambda(T_G)
    sc_in_adjoint: Lattice            # coroot lattice inside Z^m
    derived_in_adjoint: Lattice       # image of Lambda(T_D) in Z^m
    ss_in_adjoint: Lattice            # image of Lambda(T_G) in Z^m
    adjoint_rank: int                 # m


def cross_diagram(g: ReductiveGroupData) -> CrossDiagram:
    n, m = g.cochar_rank, g.ss_rank
    coroot = g.coroot_lattice()
    derived = saturation(coroot)
    rt = g.simple_roots.transpose()
    radical = Lattice.from_columns(n, kernel_basis(rt).columns())
    sc_ad = Lattice.from_columns(m, rt.mul(g.simple_coroots).columns())
    der_ad = Lattice.from_columns(m, rt.mul(derived.basis).columns())
    ss_ad = Lattice.from_columns(m, rt.columns())

    # split off Lambda(G^ab) = Z^n / Lambda(T_D(G)): the derived lattice is
    # saturated, so the quotient is free and its canonical generators split it
    _, section, proj, _ = canonical_generators(n, derived.basis)
    return CrossDiagram(
        group=g,
        derived_lattice=derived,
        derived_simply_connected=derived == coroot,
        radical_lattice=radical,
        ab_rank=n - derived.rank,
        ab_projection=proj,
        ab_section=section,
        sc_in_adjoint=sc_ad,
        derived_in_adjoint=der_ad,
        ss_in_adjoint=ss_ad,
        adjoint_rank=m,
    )


# ---------------------------------------------------------------------------
# generic cocharacters and divisibility


def is_generic(g: ReductiveGroupData, d) -> bool:
    """True iff the image of d in Lambda(T_Gad) is nonzero on every simple factor."""
    ad = g.adjoint_coordinates(d)
    return all(any(ad[i] for i in block) for block in g.factor_blocks())


def generic_lift(g: ReductiveGroupData, delta: Pi1Element) -> tuple:
    """A cocharacter lifting delta whose class is generic (adds coroots from
    each simple factor whose adjoint component vanishes)."""
    d = list(delta.lift())
    for block in g.factor_blocks():
        ad = g.adjoint_coordinates(d)
        if not any(ad[i] for i in block):
            coroot = g.simple_coroots.column(block[0])
            d = [x + y for x, y in zip(d, coroot)]
    return tuple(d)


def divisibility(d, l: Lattice) -> int:
    """Largest m >= 0 with d = m * (primitive vector of the lattice); 0 iff d = 0."""
    d = tuple(d)
    if all(x == 0 for x in d):
        return 0
    coords = l.coordinates(d)
    if coords is None:
        raise NotInLattice(f"{d} is not in the lattice")
    return gcd(*coords)


# ---------------------------------------------------------------------------
# full-center torus cover (realizes the golden-table groups)


def with_central_torus(g_sc: ReductiveGroupData):
    """Glue a torus to a simply connected group along its full center.

    Returns ``(G, gens)`` where G is reductive with D(G) = g_sc and
    G^ss = G^ad, and ``gens[j]`` is a cocharacter of G whose pi_1-class maps
    to the j-th invariant-factor generator of pi_1(G^ad).  This realizes, for
    each simply connected type, every central class as delta^ss of an honest
    group (the A_n instance of the construction is GL_n).
    """
    if not g_sc.is_semisimple or g_sc.coroot_lattice() != Lattice.full(g_sc.cochar_rank):
        raise InvalidSpec("with_central_torus expects a simply connected group")
    m = g_sc.cochar_rank
    c = g_sc.simple_roots.transpose().mul(g_sc.simple_coroots)  # Cartan matrix
    s, _, v, _ = smith_normal_form(c)
    nontrivial = [i for i in range(m) if s[i, i] >= 2]
    k = len(nontrivial)
    denom = s[m - 1, m - 1] if m else 1      # last invariant factor: lcm of the d_j

    # generators of denom * Lambda(T_G) in Z^{m+k}: coroots, torus units, and
    # the glue vectors (w_j, e_j/d_j) with w_j = v_j/d_j the coweight generating
    # the j-th cyclic piece of pi_1(G^ad) (c v_j = d_j u^-1 e_j as c = u^-1 s v^-1)
    def unit(i):
        return tuple(denom * int(i == r) for r in range(m + k))

    glue = [tuple(denom // s[idx, idx] * x
                  for x in v.column(idx) + tuple(int(j == r) for r in range(k)))
            for j, idx in enumerate(nontrivial)]
    cols = [unit(i) for i in range(m + k)] + glue
    glued = Lattice.from_columns(m + k, cols)  # denom * Lambda
    basis = glued.basis

    def to_new_coords(target):
        x = glued.coordinates(target)
        if x is None:
            raise ArithmeticError("vector not in the glued lattice")
        return x

    new_coroots = IntMatrix.from_columns([to_new_coords(unit(i)) for i in range(m)], m + k)
    # roots become functionals on the new basis: old root paired with basis columns
    old_roots = g_sc.simple_roots.transpose().hstack(IntMatrix.zero(m, k))
    new_roots = divide_exactly(old_roots.mul(basis), denom,
                               "root not integral on the glued lattice").transpose()
    group = ReductiveGroupData(
        m + k, new_coroots, new_roots, g_sc.factor_types,
        label=f"({g_sc}xT{k})/Z",
    )
    gen_cochars = [tuple(to_new_coords(vec)) for vec in glue]
    return group, gen_cochars
