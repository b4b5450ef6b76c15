import random
from itertools import combinations, product

import pytest

from bunpic.exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    group_from_relations,
    quotient_group,
    solve_congruence_sublattice,
)
from bunpic.family import CurveFamily, family_from_preset
from bunpic.gerbe import evaluation_cokernel, rigidified_picard, weight_cokernel
from bunpic.invariant_forms import (
    basic_inner_product,
    conditional_form_lattice,
    d_even_forms,
    even_invariant_forms,
    invariant_sym_forms,
    ns_bun,
    ns_bun_p1,
    ns_rigidified,
)
from bunpic.picard import (
    GenusZero,
    HypothesisNotSatisfied,
    TautClass,
    WrongGenus,
    base_component,
    relation_3_4_check,
    reductive_picard,
    taut_gamma,
    taut_rho,
    taut_weight,
    torus_picard,
    torus_picard_genus0,
)
from bunpic.record import replace
from bunpic.root_datum import (
    Pi1Element,
    ReductiveGroupData,
    SimpleType,
    build_group,
    fundamental_group,
)
from reference import (
    divisibility_conditions,
    gamma_bar_image,
    ns_image_sublattice,
    parity_image,
    rational_solve,
)


# ---------------------------------------------------------------------------
# tautological invariants


def test_taut_weight_vanishing():
    c = TautClass.of(det_terms=[((1,), 0, 1)])
    assert taut_weight(1, (0,), 1, c) == (0,)


def test_taut_weight_det_term():
    # chi(d) = 3, deg M = 0, g = 2: weight (3 + 0 + 1 - 2) chi = 2 chi
    c = TautClass.of(det_terms=[((1,), 0, 1)])
    assert taut_weight(1, (3,), 2, c) == (2,)


def test_taut_weight_pair_term():
    # chi = e1*, mu = e2*, mu(d) = 1, deg N = 0, chi(d) = 0, deg M = 2
    c = TautClass.of(pair_terms=[((1, 0), (0, 1), 2, 0, 1)])
    assert taut_weight(2, (0, 1), 3, c) == (1, 2)  # chi + 2 mu


def test_taut_gamma_det():
    c = TautClass.of(det_terms=[((1, 0), 0, 1)])
    assert taut_gamma(2, c).gram.to_lists() == [[1, 0], [0, 0]]


def test_taut_gamma_pair():
    c = TautClass.of(pair_terms=[((1, 0), (0, 1), 0, 0, 1)])
    assert taut_gamma(2, c).gram.to_lists() == [[0, 1], [1, 0]]


def test_taut_gamma_relation_kills():
    # a_i + 2 b_ii = 0 kills gamma
    c = TautClass.of(det_terms=[((1,), 0, -2)], pair_terms=[((1,), (1,), 0, 0, 1)])
    assert taut_gamma(1, c).gram.to_lists() == [[0]]


def test_taut_gamma_genus_zero_raises():
    with pytest.raises(GenusZero):
        taut_gamma(0, TautClass.of())


def test_taut_rho():
    c = TautClass.of(det_terms=[((1, 0), 0, 1)])
    assert taut_rho(1, c) == (1, 0)
    p = TautClass.of(pair_terms=[((1, 0), (0, 1), 0, 0, 1)])
    assert taut_rho(1, p) == (0, 0)
    assert taut_rho(1, TautClass.of()) == ()


def test_rho_is_epsilon_of_gamma():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 3)
        det = [(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3),
                rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        pair = [(tuple(rng.randint(-2, 2) for _ in range(n)),
                 tuple(rng.randint(-2, 2) for _ in range(n)),
                 rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 3))]
        if not det and not pair:
            continue
        c = TautClass.of(det_terms=det, pair_terms=pair)
        gamma = taut_gamma(2, c)
        rho = taut_rho(2, c)
        for i in range(c.rank()):
            assert rho[i] == gamma.gram[i, i] % 2


def test_relation_3_4_trivial():
    assert relation_3_4_check((0,), (0,), 0, 0, (0,), 1)


def test_relation_3_4_random_and_corrupted():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 3)
        chi = tuple(rng.randint(-3, 3) for _ in range(n))
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        dm, dn = rng.randint(-3, 3), rng.randint(-3, 3)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        gg = rng.choice([1, 2, 3])
        assert relation_3_4_check(chi, mu, dm, dn, d, gg)
        assert not relation_3_4_check(chi, mu, dm, dn, d, gg, corrupt=True)


def test_step1_kernel_classes_match_omega_pairing():
    # classes with vanishing form component reduce to pairings against the
    # relative dualizing sheaf: <L_chi, L_chi> - 2 d(L_chi) has the same
    # computable invariants as <L_chi, omega> - 2 d(O)
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 3)
        chi = tuple(rng.randint(-3, 3) for _ in range(n))
        g = rng.choice([1, 2, 3])
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        zero = tuple(0 for _ in range(n))
        lhs = TautClass.of(det_terms=[(chi, 0, -2)],
                           pair_terms=[(chi, chi, 0, 0, 1)])
        rhs = TautClass.of(det_terms=[(zero, 0, -2)],
                           pair_terms=[(chi, zero, 0, 2 * g - 2, 1)])
        assert taut_gamma(g, lhs).gram == taut_gamma(g, rhs).gram
        assert taut_rho(g, lhs) == taut_rho(g, rhs)
        assert taut_weight(n, d, g, lhs) == taut_weight(n, d, g, rhs)
        assert base_component(lhs) == base_component(rhs)


def test_base_component_detects_constant():
    lhs = TautClass.of(pair_terms=[((1,), (0,), 2, 3, 1)])
    rhs_full = TautClass.of(det_terms=[((1,), 5, 1), ((1,), 2, -1), ((0,), 3, -1), ((0,), 0, 1)])
    rhs_cut = TautClass.of(det_terms=[((1,), 5, 1), ((1,), 2, -1), ((0,), 3, -1)])
    assert base_component(lhs) == base_component(rhs_full)
    assert base_component(lhs) != base_component(rhs_cut)


# ---------------------------------------------------------------------------
# torus, genus zero


def test_torus_genus0_d_zero_full():
    t = build_group("T(1)")
    f = family_from_preset("genus0_nontrivial")
    rep = torus_picard_genus0(t, (0,), f)
    assert rep.image_lattice == Lattice.full(1)


def test_torus_genus0_nontrivial_index_two():
    t = build_group("T(1)")
    f = family_from_preset("genus0_nontrivial")
    rep = torus_picard_genus0(t, (1,), f)
    assert rep.image_lattice == Lattice.from_columns(1, [(2,)])
    assert rep.cokernel == FGAbelianGroup.cyclic(2)


def test_torus_genus0_trivial_full():
    t = build_group("T(2)")
    f = family_from_preset("genus0_trivial")
    rep = torus_picard_genus0(t, (1, 0), f)
    assert rep.image_lattice == Lattice.full(2)


def test_torus_genus0_parity_set_matches_enumeration():
    rng = random.Random(9)
    f = family_from_preset("genus0_nontrivial")
    for _ in range(20):
        n = rng.randint(1, 3)
        t = build_group(f"T({n})")
        d = tuple(rng.randint(-4, 4) for _ in range(n))
        rep = torus_picard_genus0(t, d, f)
        for chi in product(range(-4, 5), repeat=n):
            parity_ok = sum(a * b for a, b in zip(chi, d)) % 2 == 0
            assert rep.image_lattice.contains(chi) == parity_ok


def test_torus_genus0_wrong_genus():
    t = build_group("T(1)")
    with pytest.raises(WrongGenus):
        torus_picard_genus0(t, (1,), family_from_preset("universal", 2, 0))


# ---------------------------------------------------------------------------
# torus, positive genus


def synthetic_family(genus, delta):
    return CurveFamily(genus=genus, delta=delta, end_jacobian_trivial=True,
                       rpic_surjective=True, rpic0_torsion_free=True,
                       label=f"synthetic(g={genus},delta={delta})")


def test_torus_picard_delta_one_full():
    t = build_group("T(1)")
    rep = torus_picard(t, (5,), synthetic_family(1, 1))
    assert rep.image_lattice == Lattice.full(2)
    assert rep.cokernel.is_trivial


def test_torus_picard_g2_delta2_d0():
    t = build_group("T(1)")
    rep = torus_picard(t, (0,), synthetic_family(2, 2))
    # image = {(chi, b): chi + b even}, index 2
    assert rep.image_index == 2
    assert rep.image_lattice.contains((1, 1))
    assert not rep.image_lattice.contains((1, 0))


def test_torus_picard_g3_delta4_d2():
    t = build_group("T(1)")
    rep = torus_picard(t, (2,), synthetic_family(3, 4))
    # condition 4 | chi - 2b + 2b = chi
    assert rep.image_index == 4
    assert rep.image_lattice.contains((4, 0))
    assert rep.image_lattice.contains((0, 1))
    assert not rep.image_lattice.contains((2, 0))


def test_torus_picard_image_matches_enumeration():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 2)
        t = build_group(f"T({n})")
        g = rng.randint(1, 4)
        divisors = [d for d in range(1, 2 * g - 1) if (2 * g - 2) % d == 0] or [1]
        delta = rng.choice(divisors + ([0] if g == 1 else []))
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        rep = torus_picard(t, d, synthetic_family(g, delta))
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for _ in range(25):
            chi = tuple(rng.randint(-4, 4) for _ in range(n))
            coeffs = tuple(rng.randint(-4, 4) for _ in range(len(pairs)))
            gram = [[0] * n for _ in range(n)]
            for (i, j), cval in zip(pairs, coeffs):
                gram[i][j] = cval
                gram[j][i] = cval
            ok = True
            for x in product(range(-2, 3), repeat=n):
                bdx = sum(d[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
                bxx = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
                val = sum(a * b for a, b in zip(chi, x)) - bdx + (g - 1) * bxx
                if (delta and val % delta) or (delta == 0 and val != 0):
                    ok = False
                    break
            assert rep.image_lattice.contains(chi + coeffs) == ok


def test_torus_picard_image_laws():
    # image contains delta * chars x {0} and projects onto all of Bil^s
    t = build_group("T(2)")
    f = synthetic_family(3, 4)
    rep = torus_picard(t, (1, 2), f)
    for i in range(2):
        chi = [0, 0]
        chi[i] = f.delta
        assert rep.image_lattice.contains(tuple(chi) + (0, 0, 0))
    # second projection surjective: every pure form lifts into the image
    for coeffs in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        found = False
        for chi in product(range(-4, 5), repeat=2):
            if rep.image_lattice.contains(tuple(chi) + coeffs):
                found = True
                break
        assert found


def test_torus_picard_functoriality_subtorus():
    # restriction of characters along T(1) -> T(2) respects the images
    f = synthetic_family(2, 2)
    rep2 = torus_picard(build_group("T(2)"), (1, 0), f)
    rep1 = torus_picard(build_group("T(1)"), (1,), f)
    # (chi1, chi2, b11, b12, b22) restricted to the first coordinate
    for chi1 in range(-3, 4):
        for b11 in range(-3, 4):
            # pick chi2/b12/b22 freely; restriction only sees (chi1, b11)
            if rep1.image_lattice.contains((chi1, b11)):
                assert any(
                    rep2.image_lattice.contains((chi1, chi2, b11, b12, b22))
                    for chi2 in range(-2, 3) for b12 in range(-2, 3) for b22 in range(-2, 3)
                )


def test_torus_picard_wrong_genus():
    with pytest.raises(WrongGenus):
        torus_picard(build_group("T(1)"), (1,), family_from_preset("genus0_trivial"))


# ---------------------------------------------------------------------------
# reductive


def test_reductive_e8_faltings():
    g = build_group("E8")
    rep = reductive_picard(g, Pi1Element.zero(g), family_from_preset("universal", 2, 1))
    assert rep.cokernel == FGAbelianGroup.free(1)
    assert (conditional_form_lattice(g).basis_forms[0].gram
            == basic_inner_product(SimpleType("E", 8)).gram)
    assert rep.splitting_known is True


def test_reductive_gl2():
    g = build_group("GL(2)")
    rep = reductive_picard(g, Pi1Element.from_coords(g, (1,)),
                           family_from_preset("universal", 2, 1))
    assert rep.cokernel == FGAbelianGroup.free(1)
    assert rep.splitting_known is True
    assert rep.image_lattice is not None  # NS-level hypotheses hold


def test_reductive_hypothesis_failure():
    g = build_group("PGL(2)")
    with pytest.raises(HypothesisNotSatisfied) as exc:
        reductive_picard(g, Pi1Element.from_coords(g, (1,)),
                         family_from_preset("fixed_curve", 2))
    assert exc.value.theorem == "ThmB"
    assert any("torsion-free" in m for m in exc.value.missing)


def test_reductive_genus0_gl2_index_two():
    g = build_group("GL(2)")
    rep = reductive_picard(g, Pi1Element.from_coords(g, (1,)),
                           family_from_preset("genus0_nontrivial"))
    assert rep.image_index == 2
    assert rep.cokernel == FGAbelianGroup.cyclic(2)


def test_reductive_genus0_pgl2_index_two():
    g = build_group("PGL(2)")
    rep = reductive_picard(g, Pi1Element.from_coords(g, (1,)),
                           family_from_preset("genus0_nontrivial"))
    assert rep.image_index == 2


def test_reductive_genus0_sl2_surjective():
    # D(SL2) is simply connected and delta^ab = 0: the parity functional is
    # identically even, so c is onto NS Bun(P^1) (Lemma 3.15 route)
    g = build_group("SL(2)")
    rep = reductive_picard(g, Pi1Element.zero(g), family_from_preset("genus0_nontrivial"))
    assert rep.image_index == 1


def test_reductive_genus0_trivial_family_full():
    g = build_group("GL(2)")
    rep = reductive_picard(g, Pi1Element.from_coords(g, (1,)),
                           family_from_preset("genus0_trivial"))
    assert rep.image_index == 1


def test_reductive_positive_semisimple_cor_c():
    for name, t in [("SL(4)", SimpleType("A", 3)), ("Sp(6)", SimpleType("C", 3)),
                    ("Spin(7)", SimpleType("B", 3))]:
        g = build_group(name)
        rep = reductive_picard(g, Pi1Element.zero(g), family_from_preset("universal", 2, 1))
        assert rep.cokernel == FGAbelianGroup.free(1)
        assert conditional_form_lattice(g).basis_forms[0].gram == basic_inner_product(t).gram


# ---------------------------------------------------------------------------
# the Picard images against the reference route, and under changes of
# cocharacter coordinates

# genus 1-3 with every delta(C/S) up to 5, so delta does not divide 2g - 2
# for some of them (families validate_family refuses, and the engines too)
IMAGE_FAMILIES = [synthetic_family(genus, delta_cs)
                  for genus in (1, 2, 3) for delta_cs in range(6)]
IMAGE_GROUPS = ["T(1)", "T(2)", "GL(2)", "PGL(2)", "GL(3)", "SO(5)", "PSp(4)",
                "SL(2)*PGL(2)", "GL(2)*T(1)", "PGL(3)*T(1)"]


def divides_2g_2(fam):
    """delta(C/S) | 2g - 2, where 0 divides only 0."""
    return (2 * fam.genus - 2) % fam.delta == 0 if fam.delta else fam.genus == 1


def assert_refused(compute):
    """``compute`` raises the delta-divides-2g-2 refusal."""
    with pytest.raises(ValueError, match="delta-divides-2g-2: delta = .* does not divide 2g-2"):
        compute()


def random_delta(rng, g):
    ngens = len(Pi1Element.zero(g).coords)
    return Pi1Element.from_coords(g, tuple(rng.randint(-2, 3) for _ in range(ngens)))


def shifted_lift(rng, g, delta):
    """The canonical lift of delta plus a random coroot-lattice vector."""
    shift = g.simple_coroots.mul_vector(tuple(rng.randint(-2, 2) for _ in range(g.ss_rank)))
    return tuple(a + b for a, b in zip(delta.lift(), shift))


@pytest.mark.parametrize("name", IMAGE_GROUPS)
def test_divisibility_images_match_the_reference_route(name):
    # the library imposes the condition at the basis vectors, the reference
    # at the basis vectors and their pairwise sums
    rng = random.Random(name)
    g = build_group(name)
    for _ in range(2):
        delta = random_delta(rng, g)
        lift = shifted_lift(rng, g, delta)
        ns = ns_bun(g, delta, lift=lift)
        members = Lattice(ns.key.rows, ns.key)
        for fam in IMAGE_FAMILIES:
            case = (name, delta.coords, lift, fam.genus, fam.delta)
            if not divides_2g_2(fam):
                assert_refused(lambda: reductive_picard(g, delta, fam, lift=lift))
                assert_refused(lambda: rigidified_picard(g, delta, fam, lift=lift))
                assert_refused(lambda: weight_cokernel(g, delta, fam, lift=lift))
                if g.is_torus:
                    assert_refused(lambda: torus_picard(g, lift, fam))
                continue
            rep = reductive_picard(g, delta, fam, lift=lift)
            image = ns_image_sublattice(ns, fam.genus, fam.delta)
            assert rep.image_lattice == image, case
            assert rep.image_index == quotient_group(members, image).order(), case
            rig = rigidified_picard(g, delta, fam, lift=lift)
            image = gamma_bar_image(g, ns_rigidified(g, delta, lift=lift), fam.genus, fam.delta)
            assert rig.image_lattice == image, case
            assert rig.cokernel == group_from_relations(image.ambient_rank, image.basis), case
            if g.is_torus:
                forms = invariant_sym_forms(g)
                conditions = divisibility_conditions(g.cochar_rank, lift, fam.genus, fam.delta,
                                                     forms)
                assert (torus_picard(g, lift, fam).image_lattice
                        == solve_congruence_sublattice(g.cochar_rank + forms.rank, conditions))


@pytest.mark.parametrize("name,lift", [("T(3)", (1, -2, 4)), ("GL(3)", (2, 0, -1)),
                                       ("SO(5)*GL(2)", (1, 0, 1, -1))])
def test_divisibility_image_imposes_one_congruence_per_basis_vector(monkeypatch, name, lift):
    from bunpic import picard

    sizes = []

    def counted(rank, conditions):
        conditions = list(conditions)
        sizes.append(len(conditions))
        return solve_congruence_sublattice(rank, conditions)

    monkeypatch.setattr(picard, "solve_congruence_sublattice", counted)
    g = build_group(name)
    fam = synthetic_family(3, 4)
    if g.is_torus:
        torus_picard(g, lift, fam)
    else:
        reductive_picard(g, Pi1Element.from_cocharacter(g, lift), fam, lift=lift)
    assert sizes == [g.cochar_rank]


@pytest.mark.parametrize("name", IMAGE_GROUPS)
def test_genus0_image_matches_the_reference_route(name):
    rng = random.Random(name)
    g = build_group(name)
    fam = family_from_preset("genus0_nontrivial")
    for _ in range(3):
        delta = random_delta(rng, g)
        assert reductive_picard(g, delta, fam).image_lattice == parity_image(ns_bun_p1(g, delta))


def random_unimodular(rng, n):
    """A random U in GL_n(Z): elementary column operations, then a sign."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            for row in u:
                row[j] += c * row[i]
    k = rng.randrange(n)
    for row in u:
        row[k] = -row[k]
    return IntMatrix.from_rows(u)


def in_new_coordinates(g, u):
    """g with cocharacters x written as u*x: coroots u*C, roots u^-T * R."""
    n = g.cochar_rank
    inv = [rational_solve(u, e) for e in IntMatrix.identity(n).columns()]
    assert all(x.denominator == 1 for col in inv for x in col)
    u_inv = IntMatrix.from_columns([[int(x) for x in col] for col in inv], n)
    return replace(g, simple_coroots=u.mul(g.simple_coroots),
                   simple_roots=u_inv.transpose().mul(g.simple_roots))


def coordinate_free_outputs(g, delta, lift, family):
    """The groups and indices of the Picard and gerbe reports.  coker(wt) is
    left out: it can depend on the lift of delta (ROADMAP item 2)."""
    rigidified = rigidified_picard(g, delta, family, lift=lift)
    out = (reductive_picard(g, delta, family, lift=lift).image_index, rigidified.cokernel,
           rigidified.image_index, weight_cokernel(g, delta, family, lift=lift).coker_gamma_bar,
           evaluation_cokernel(g, delta, lift=lift))
    if g.is_torus:
        out += (torus_picard(g, lift, family).cokernel,)
    return out


@pytest.mark.parametrize("name", IMAGE_GROUPS + ["SO(5)*GL(2)"])
def test_picard_groups_do_not_depend_on_the_coordinates(name):
    rng = random.Random(name)
    g = build_group(name)
    # delta(C/S) | 2g - 2 in each family: the engines refuse every other
    families = [synthetic_family(genus, delta_cs)
                for genus, delta_cs in ((1, 0), (1, 3), (2, 1), (2, 2), (3, 2), (3, 4))]
    for _ in range(2):
        delta = random_delta(rng, g)
        lift = delta.lift()
        u = random_unimodular(rng, g.cochar_rank)
        h = in_new_coordinates(g, u)
        u_lift = u.mul_vector(lift)
        u_delta = Pi1Element.from_cocharacter(h, u_lift)
        for fam in families:
            assert (coordinate_free_outputs(g, delta, lift, fam)
                    == coordinate_free_outputs(h, u_delta, u_lift, fam)), (name, u, fam)


def refused_or(compute):
    """``compute()``, or the theorem of its gate refusal, as a value."""
    try:
        return compute()
    except HypothesisNotSatisfied as exc:
        return ("refused", exc.theorem)


def genus0_coordinate_free_outputs(g, delta, lift, family):
    """The groups and indices of the genus-0 Picard, NS and gerbe results."""
    def picard():
        rep = reductive_picard(g, delta, family, lift=lift)
        return rep.cokernel, rep.image_index

    def gerbe():
        rep = weight_cokernel(g, delta, family, lift=lift)
        return rep.coker_wt, rep.ev_cokernel

    out = (refused_or(picard),
           refused_or(lambda: rigidified_picard(g, delta, family, lift=lift).cokernel),
           refused_or(gerbe), ns_bun_p1(g, delta, lift=lift).group)
    if g.is_torus:
        rep = torus_picard_genus0(g, lift, family)
        out += ((rep.cokernel, rep.image_index),)
    return out


@pytest.mark.parametrize("name", IMAGE_GROUPS + ["SO(5)*GL(2)"])
def test_genus0_groups_do_not_depend_on_the_coordinates(name):
    rng = random.Random(name)
    g = build_group(name)
    families = [family_from_preset("genus0_trivial"), family_from_preset("genus0_nontrivial")]
    for _ in range(2):
        delta = random_delta(rng, g)
        lift = delta.lift(generic=True)
        u = random_unimodular(rng, g.cochar_rank)
        h = in_new_coordinates(g, u)
        u_lift = u.mul_vector(lift)
        u_delta = Pi1Element.from_cocharacter(h, u_lift)
        for fam in families:
            assert (genus0_coordinate_free_outputs(g, delta, lift, fam)
                    == genus0_coordinate_free_outputs(h, u_delta, u_lift, fam)), (name, u, fam)


# ---------------------------------------------------------------------------
# the order of the factors

PERMUTED_FACTORS = ["GL(2)", "SL(3)", "PGL(2)", "Sp(4)", "SO(5)", "T(1)"]


def with_blocks_swapped(g, first):
    """The datum of G x H, G the group ``first``, written as H x G (the
    cocharacter coordinates, coroots and roots of H first), and the
    permutation ``rows``: coordinate i of H x G is coordinate rows[i]."""
    n, m, k = first.cochar_rank, first.ss_rank, len(first.factor_types)
    rows = list(range(n, g.cochar_rank)) + list(range(n))
    cols = list(range(m, g.ss_rank)) + list(range(m))

    def swapped(a):
        return IntMatrix.from_rows([[a[i, j] for j in cols] for i in rows], len(cols))

    return ReductiveGroupData(g.cochar_rank, swapped(g.simple_coroots), swapped(g.simple_roots),
                              g.factor_types[k:] + g.factor_types[:k]), rows


def factor_order_free_outputs(g, delta, lift, family):
    """pi1, the form-lattice ranks, the NS groups, and the groups and indices
    of the Picard and gerbe reports.  coker(wt) is left out: it can depend on
    the lift of delta and the section (ROADMAP item 2)."""
    def picard():
        rep = reductive_picard(g, delta, family, lift=lift)
        return rep.cokernel, rep.image_index

    def gerbe():
        rep = weight_cokernel(g, delta, family, lift=lift)
        return rep.ev_cokernel, rep.coker_gamma_bar

    return (fundamental_group(g),
            [fn(g).rank for fn in (invariant_sym_forms, even_invariant_forms, d_even_forms,
                                   conditional_form_lattice)],
            [fn(g, delta, lift=lift).group for fn in (ns_bun, ns_rigidified, ns_bun_p1)],
            refused_or(picard),
            refused_or(lambda: rigidified_picard(g, delta, family, lift=lift).cokernel),
            refused_or(gerbe))


@pytest.mark.parametrize("first,second", list(combinations(PERMUTED_FACTORS, 2)))
def test_outputs_do_not_depend_on_the_order_of_the_factors(first, second):
    rng = random.Random(first + second)
    g = build_group(f"{first}*{second}")
    h, rows = with_blocks_swapped(g, build_group(first))
    assert h == replace(build_group(f"{second}*{first}"), label="")
    families = [family_from_preset("universal", 2, 1), family_from_preset("genus0_trivial"),
                family_from_preset("genus0_nontrivial")]
    for delta in (Pi1Element.zero(g), random_delta(rng, g), random_delta(rng, g)):
        lift = delta.lift()
        h_lift = tuple(lift[i] for i in rows)
        h_delta = Pi1Element.from_cocharacter(h, h_lift)
        for fam in families:
            assert (factor_order_free_outputs(g, delta, lift, fam)
                    == factor_order_free_outputs(h, h_delta, h_lift, fam)), (delta, fam)
