import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunpic.exact_algebra import FGAbelianGroup, Lattice, group_from_relations
from bunpic.root_datum import (
    MAX_COCHAR_RANK,
    InvalidSpec,
    NotInLattice,
    ParseError,
    Pi1Element,
    SimpleType,
    build_group,
    cartan_matrix,
    cross_diagram,
    divisibility,
    fundamental_group,
    generic_lift,
    group_from_json,
    group_to_json,
    is_generic,
    parse_group_spec,
    pi1_presentation,
    with_central_torus,
)
from reference import contains_lattice, lattice_sum

NAMED = [
    "SL(2)", "SL(3)", "SL(4)", "SL(5)", "GL(2)", "GL(3)", "GL(4)",
    "PGL(2)", "PGL(3)", "PGL(4)", "Sp(4)", "Sp(6)", "PSp(4)", "PSp(6)",
    "Spin(5)", "Spin(7)", "Spin(8)", "Spin(10)", "SO(5)", "SO(7)", "SO(6)",
    "SO(8)", "PSO(6)", "PSO(8)", "E6sc", "E6ad", "E7sc", "E7ad", "E8",
    "F4", "G2", "T(1)", "T(3)", "GL(3)*T(1)", "SL(2)*SL(3)", "Sp(4)*T(1)",
]


def test_parse_roundtrip():
    spec = parse_group_spec("GL(3) * T(1)")
    assert len(spec.factors) == 2
    assert parse_group_spec(str(spec)) == spec


def test_parse_exceptional():
    assert str(parse_group_spec("E8")) == "E8"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_group_spec("SL(1)")
    with pytest.raises(ParseError):
        parse_group_spec("SL(2)+SL(3)")
    with pytest.raises(ParseError):
        parse_group_spec("Sp(5)")
    with pytest.raises(ParseError):
        parse_group_spec("Q(3)")


def test_sl2_datum():
    g = build_group("SL(2)")
    assert g.cochar_rank == 1
    assert g.simple_coroots.column(0) == (1,)
    assert g.simple_roots.column(0) == (2,)


def test_gl2_datum():
    g = build_group("GL(2)")
    assert g.cochar_rank == 2
    assert g.simple_coroots.column(0) == (1, -1)
    assert g.simple_roots.column(0) == (1, -1)


def test_torus_datum():
    g = build_group("T(3)")
    assert g.cochar_rank == 3
    assert g.ss_rank == 0


def test_cartan_reconstruction_all_named():
    # the ReductiveGroupData constructor itself verifies the pairing; surviving
    # construction is the test
    for name in NAMED:
        g = build_group(name)
        assert g.cochar_rank >= g.ss_rank


def test_cartan_g2_f4_shapes():
    g2 = cartan_matrix(SimpleType("G", 2))
    assert g2.to_lists() == [[2, -1], [-3, 2]]
    f4 = cartan_matrix(SimpleType("F", 4))
    assert f4.to_lists() == [
        [2, -1, 0, 0],
        [-1, 2, -2, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]


def test_fundamental_groups_golden():
    assert fundamental_group(build_group("SL(4)")).is_trivial
    assert fundamental_group(build_group("PGL(5)")) == FGAbelianGroup.cyclic(5)
    assert fundamental_group(build_group("GL(2)")) == FGAbelianGroup.free(1)
    assert fundamental_group(build_group("SO(7)")) == FGAbelianGroup.cyclic(2)
    assert fundamental_group(build_group("SO(8)")) == FGAbelianGroup.cyclic(2)
    assert fundamental_group(build_group("PSO(8)")) == FGAbelianGroup(0, (2, 2))
    assert fundamental_group(build_group("PSO(6)")) == FGAbelianGroup.cyclic(4)
    assert fundamental_group(build_group("PSp(6)")) == FGAbelianGroup.cyclic(2)
    assert fundamental_group(build_group("E6ad")) == FGAbelianGroup.cyclic(3)
    assert fundamental_group(build_group("E7ad")) == FGAbelianGroup.cyclic(2)
    for name in ("E8", "F4", "G2", "Sp(6)", "Spin(9)" if False else "Spin(8)"):
        assert fundamental_group(build_group(name)).is_trivial
    assert fundamental_group(build_group("T(2)")) == FGAbelianGroup.free(2)


def test_pi1_order_matches_center_of_sc():
    # |pi_1(G^ad)| = |Z(G^sc)|
    centers = {"PGL(4)": 4, "PSp(4)": 2, "SO(5)": 2, "PSO(8)": 4, "PSO(6)": 4,
               "E6ad": 3, "E7ad": 2}
    for name, order in centers.items():
        assert fundamental_group(build_group(name)).order() == order


def test_exactness_of_pi1_sequence():
    # torsion(pi_1(G)) = pi_1(D(G)) and the free quotient has rank dim G^ab
    for name in NAMED:
        g = build_group(name)
        cd = cross_diagram(g)
        pi1 = fundamental_group(g)
        assert pi1.free_rank == cd.ab_rank
        d_basis = cd.derived_lattice.basis
        coroot_in_d = [cd.derived_lattice.coordinates(c) for c in g.simple_coroots.columns()]
        from bunpic.exact_algebra import IntMatrix, group_from_relations

        rels = (
            IntMatrix.from_columns(coroot_in_d, d_basis.cols)
            if coroot_in_d
            else IntMatrix.zero(d_basis.cols, 0)
        )
        pi1_d = group_from_relations(d_basis.cols, rels)
        assert pi1_d == FGAbelianGroup(0, pi1.torsion)


def test_cross_diagram_torus():
    cd = cross_diagram(build_group("T(2)"))
    assert cd.derived_lattice.rank == 0
    assert cd.ab_rank == 2
    assert cd.adjoint_rank == 0


def test_cross_diagram_gl_n():
    g = build_group("GL(3)")
    cd = cross_diagram(g)
    # Lambda(T_D) = Lambda(T_SL3) = {sum of coords 0}
    assert cd.derived_lattice.rank == 2
    for c in cd.derived_lattice.basis.columns():
        assert sum(c) == 0
    assert cd.ab_rank == 1
    assert cd.radical_lattice == Lattice.from_columns(3, [(1, 1, 1)])


def adjoint_chain_holds(cd):
    """The coroot lattice, Lambda(T_D) and Lambda(T_G) map into Z^m in a chain."""
    return (contains_lattice(cd.derived_in_adjoint, cd.sc_in_adjoint)
            and contains_lattice(cd.ss_in_adjoint, cd.derived_in_adjoint)
            and contains_lattice(Lattice.full(cd.adjoint_rank), cd.ss_in_adjoint))


def test_cross_diagram_sl2_indexes():
    g = build_group("SL(2)")
    cd = cross_diagram(g)
    assert cd.derived_lattice == Lattice.full(1)
    assert cd.sc_in_adjoint == Lattice.from_columns(1, [(2,)])  # index 2 in coweights
    assert adjoint_chain_holds(cd)


def test_cross_diagram_chain_all_named():
    for name in NAMED:
        assert adjoint_chain_holds(cross_diagram(build_group(name)))


def test_is_generic():
    t = build_group("T(2)")
    assert is_generic(t, (0, 0))
    g = build_group("SL(2)*SL(2)")
    assert not is_generic(g, (1, 0))
    assert is_generic(g, (1, -3))
    assert is_generic(build_group("SL(2)"), (1,))


def test_generic_lift_properties():
    rng = random.Random(17)
    for name in NAMED:
        g = build_group(name)
        p = pi1_presentation(g)
        coords = tuple(rng.randint(-3, 3) for _ in range(p.group.ngens))
        delta = Pi1Element.from_coords(g, coords)
        d = generic_lift(g, delta)
        assert is_generic(g, d)
        assert Pi1Element.from_cocharacter(g, d).coords == delta.coords


def test_pi1_element_keeps_its_presentation_and_checks_lifts():
    rng = random.Random(29)
    for name in NAMED:
        g = build_group(name)
        p = pi1_presentation(g)
        delta = Pi1Element.from_coords(
            g, tuple(rng.randint(-3, 3) for _ in range(p.group.ngens)))
        d = delta.lift()
        same = Pi1Element.from_cocharacter(g, d)
        assert same == delta and hash(same) == hash(delta) and repr(same) == repr(delta)
        assert delta.presentation is p is pi1_presentation(g) and d == p.lift(delta.coords)
        assert delta.lift(generic=True) == generic_lift(g, delta)
        # any lift of the class comes back as ints
        shifted = [str(a + b) for a, b in zip(d, g.coroot_lattice().basis.mul_vector(
            tuple(rng.randint(-2, 2) for _ in range(g.ss_rank))))]
        assert delta.lift(shifted) == tuple(int(a) for a in shifted)
        with pytest.raises(ValueError):
            delta.lift(d + (0,))
        if p.group.ngens:
            other = Pi1Element.from_coords(g, tuple(c + 1 for c in delta.coords))
            with pytest.raises(ValueError):
                delta.lift(other.lift())


@pytest.mark.parametrize("bad", [1.7, 1.0, True, None])
def test_pi1_element_refuses_entries_that_are_not_integers(bad):
    # from_coords and lift used to truncate with int(): [1.7] gave (1,)
    t = build_group("T(1)")
    with pytest.raises(ValueError, match=repr(bad)):
        Pi1Element.from_coords(t, [bad])
    delta = Pi1Element.from_coords(t, [1])
    with pytest.raises(ValueError, match=repr(bad)):
        delta.lift([bad])
    with pytest.raises(ValueError, match=r"1\.2"):
        delta.lift([1.2])
    assert delta.lift([1]) == delta.lift(["1"]) == (1,)


def test_divisibility():
    full = Lattice.full(2)
    assert divisibility((0, 0), full) == 0
    assert divisibility((2, 4), full) == 2
    assert divisibility((1, 0), full) == 1
    sub = Lattice.from_columns(2, [(2, 0)])
    assert divisibility((4, 0), sub) == 2
    with pytest.raises(NotInLattice):
        divisibility((1, 1), sub)


def test_json_roundtrip():
    g = build_group("GL(2)*Sp(4)")
    j = group_to_json(g)
    h = group_from_json(j)
    assert h.simple_coroots == g.simple_coroots
    assert h.simple_roots == g.simple_roots
    assert h.factor_types == g.factor_types


def test_json_rejects_bad_pairing():
    with pytest.raises(InvalidSpec):
        group_from_json(
            {
                "cochar_rank": 1,
                "simple_coroots": [[1]],
                "simple_roots": [[3]],
                "factor_types": ["A1"],
            }
        )


def test_with_central_torus_gl_n_analogue():
    # the A_{n-1} instance reproduces pi_1 and cross-diagram shape of GL_n
    sl3 = build_group("SL(3)")
    g, gens = with_central_torus(sl3)
    assert fundamental_group(g) == FGAbelianGroup.free(1)
    cd = cross_diagram(g)
    assert cd.derived_lattice.rank == 2
    assert cd.ss_in_adjoint == Lattice.full(2)  # G^ss = G^ad
    assert len(gens) == 1
    # the generator maps onto the order-3 class of pi_1(G^ad)
    ad = g.adjoint_coordinates(gens[0])
    assert not cd.sc_in_adjoint.contains(ad)


def test_with_central_torus_spin8():
    g, gens = with_central_torus(build_group("Spin(8)"))
    assert fundamental_group(g) == FGAbelianGroup.free(2)
    cd = cross_diagram(g)
    assert cd.ss_in_adjoint == Lattice.full(4)
    assert len(gens) == 2


SC_FACTORS = ["SL(2)", "SL(3)", "SL(4)", "Sp(4)", "Spin(7)", "Spin(8)", "G2", "E6sc"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(SC_FACTORS), min_size=1, max_size=3))
def test_with_central_torus_contract(factors):
    g_sc = build_group("*".join(factors))
    m = g_sc.cochar_rank
    cartan = g_sc.simple_roots.transpose().mul(g_sc.simple_coroots)
    pi1_ad = group_from_relations(m, cartan)          # pi_1(G^ad) = Z^m / coroots
    k = len(pi1_ad.torsion)
    g, gens = with_central_torus(g_sc)
    cd = cross_diagram(g)
    assert g.cochar_rank == m + k and len(gens) == k
    assert cd.derived_lattice == g.coroot_lattice()   # D(G) is simply connected
    assert cd.ss_in_adjoint == Lattice.full(m)        # G^ss = G^ad
    assert fundamental_group(g) == FGAbelianGroup.free(k)
    ads = [g.adjoint_coordinates(gen) for gen in gens]
    for ad, d_j in zip(ads, pi1_ad.torsion):
        order = next(t for t in range(1, d_j + 1)
                     if cd.sc_in_adjoint.contains([t * x for x in ad]))
        assert order == d_j
    assert lattice_sum(cd.sc_in_adjoint, Lattice.from_columns(m, ads)) == Lattice.full(m)


AT_RANK_LIMIT = ["T(20)", "GL(20)", "SL(21)", "PGL(21)", "Sp(40)", "PSp(40)", "Spin(40)",
                 "Spin(41)", "SO(40)", "SO(41)", "PSO(40)", "E8*E8*G2*G2"]
OVER_RANK_LIMIT = ["T(21)", "GL(21)", "SL(22)", "PGL(22)", "Sp(42)", "PSp(42)", "Spin(42)",
                   "Spin(43)", "SO(42)", "SO(43)", "PSO(42)", "E8*E8*E6sc", "GL(10)*GL(11)",
                   "T(1000000000)"]


@pytest.mark.parametrize("spec", AT_RANK_LIMIT)
def test_rank_limit_admits_cochar_rank_twenty(spec):
    assert build_group(spec).cochar_rank == MAX_COCHAR_RANK == 20


@pytest.mark.parametrize("spec", OVER_RANK_LIMIT)
def test_rank_limit_rejects_larger_named_specs(spec):
    with pytest.raises(InvalidSpec, match="MAX_COCHAR_RANK = 20"):
        parse_group_spec(spec)


def test_rank_limit_rejects_larger_raw_datum():
    with pytest.raises(InvalidSpec, match="MAX_COCHAR_RANK = 20"):
        group_from_json({"cochar_rank": 21, "simple_coroots": [], "simple_roots": [],
                         "factor_types": []})


# ---------------------------------------------------------------------------
# every named factor at every parameter, against the classical tables

Z2 = FGAbelianGroup.cyclic(2)
CLASSICAL = {   # NAME -> (p is valid, cocharacter rank, pi_1) for NAME(p)
    "SL": lambda p: (p >= 2, p - 1, FGAbelianGroup.trivial()),
    "PGL": lambda p: (p >= 2, p - 1, FGAbelianGroup.cyclic(p)),
    "GL": lambda p: (p >= 1, p, FGAbelianGroup.free(1)),
    "T": lambda p: (p >= 1, p, FGAbelianGroup.free(p)),
    "Sp": lambda p: (p >= 4 and p % 2 == 0, p // 2, FGAbelianGroup.trivial()),
    "PSp": lambda p: (p >= 4 and p % 2 == 0, p // 2, Z2),
    "Spin": lambda p: (p >= 5, p // 2, FGAbelianGroup.trivial()),
    "SO": lambda p: (p >= 5, p // 2, Z2),
    "PSO": lambda p: (p >= 6 and p % 2 == 0, p // 2,
                      FGAbelianGroup.cyclic(4) if p // 2 % 2 else FGAbelianGroup(0, (2, 2))),
}
EXCEPTIONAL_PI1 = {"E6sc": FGAbelianGroup.trivial(), "E6ad": FGAbelianGroup.cyclic(3),
                   "E7sc": FGAbelianGroup.trivial(), "E7ad": Z2, "E8": FGAbelianGroup.trivial(),
                   "F4": FGAbelianGroup.trivial(), "G2": FGAbelianGroup.trivial()}


NAMED_PARAMS = [(name, p) for name in CLASSICAL for p in range(45)]


@pytest.mark.parametrize("name,p", NAMED_PARAMS, ids=[f"{n}({p})" for n, p in NAMED_PARAMS])
def test_every_named_factor_at_every_parameter(name, p):
    valid, rank, pi1 = CLASSICAL[name](p)
    spec = f"{name}({p})"
    if not valid:
        with pytest.raises(ParseError, match=re.escape(f"invalid rank {p} for {name}")) as err:
            parse_group_spec(spec)
        assert err.value.position == len(spec)
    elif rank > MAX_COCHAR_RANK:
        with pytest.raises(InvalidSpec, match="MAX_COCHAR_RANK = 20"):
            parse_group_spec(spec)
    else:
        g = build_group(spec)
        assert (g.cochar_rank, g.label, fundamental_group(g)) == (rank, spec, pi1)


@pytest.mark.parametrize("name", EXCEPTIONAL_PI1)
def test_every_exceptional_name(name):
    g = build_group(name)
    assert (g.label, str(g.factor_types[0])) == (name, name[:2])
    assert fundamental_group(g) == EXCEPTIONAL_PI1[name]


# strings joined from grammar tokens: names, brackets, stars, spaces, small
# and huge integers and junk; a factor's tokens often come in order, so that
# some of the strings parse (about one in twelve)
NUMBERS = st.one_of(st.integers(0, 8), st.integers(0, 8), st.integers(9, 45),
                    st.sampled_from([10 ** 9, 2 ** 64, 10 ** 40])).map(str)
TOKENS = st.one_of(
    st.sampled_from([*CLASSICAL, *EXCEPTIONAL_PI1, "(", ")", "*", " ", "Q", "x", "+"]), NUMBERS)
NAMED_FACTORS = st.builds("{}({})".format, st.sampled_from(list(CLASSICAL)), NUMBERS)
FACTORS = st.one_of(NAMED_FACTORS, NAMED_FACTORS, NAMED_FACTORS,
                    st.sampled_from(list(EXCEPTIONAL_PI1)), st.lists(TOKENS, max_size=5).map("".join))
SEPARATORS = st.one_of(st.just("*"), st.sampled_from([" * ", "", " ", "+", "x"]))
SPECS = st.builds(lambda first, rest: first + "".join(sep + f for sep, f in rest), FACTORS,
                  st.lists(st.tuples(SEPARATORS, FACTORS), max_size=3))


@settings(max_examples=500, deadline=None)
@given(SPECS)
def test_fuzzed_group_specs_parse_or_fail_with_a_spec_error(text):
    # a spec either fails as a spec, or reprints to itself and builds a group
    # within the rank limit
    try:
        spec = parse_group_spec(text)
    except (ParseError, InvalidSpec):
        return
    assert parse_group_spec(str(spec)) == spec
    g = build_group(spec)
    assert g.cochar_rank <= MAX_COCHAR_RANK and g.label == str(spec)
