"""Gerbe-theoretic invariants of the rigidified moduli stack: the evaluation
homomorphism and its cokernel, the weight-homomorphism cokernel (the
obstruction to trivializing the center gerbe), and the Poincare-bundle
criterion.

Conventions: gcd(0, m) = |m| and Z/0 = Z, so the closed forms specialize
correctly to non-locally-projective families; divisibility by delta(C/S) = 0
means exact vanishing throughout.
"""

from __future__ import annotations

from math import gcd

from .exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    divide_exactly,
    group_from_relations,
    hom_cokernel,
    preimage_lattice,
    solve_congruence_sublattice,
)
from .family import CurveFamily
from .invariant_forms import (
    _conditional_coefficients,
    _derived_quotient,
    _ns_rigidified,
    _root_relations,
    _sc_evaluation,
    ns_rigidified,
    sc_even_forms,
)
from .picard import PicardReport, _delta_ab_two_divisible, _divisibility_image, require_hypotheses
from .record import record
from .root_datum import (
    Pi1Element,
    ReductiveGroupData,
    divisibility,
    int_tuple,
    once_per_group,
    with_central_torus,
)


@record
class GradedPieces:
    """Sub/quotient pieces of a group determined only up to extension."""

    sub: FGAbelianGroup
    quotient: FGAbelianGroup

    @property
    def total_order(self) -> int | None:
        """|sub| * |quotient|, or ``None`` when the group is infinite."""
        so, qo = self.sub.order(), self.quotient.order()
        return None if so is None or qo is None else so * qo

    def to_json(self) -> dict:
        return {"graded": True, "sub": self.sub.to_json(), "quotient": self.quotient.to_json(),
                "total_order": self.total_order}


@record
class GerbeReport:
    ev_cokernel: FGAbelianGroup
    coker_gamma_bar: FGAbelianGroup | None
    coker_wt: FGAbelianGroup | GradedPieces
    poincare_exists: bool | None
    exact_sequence_certificate: dict
    notes: tuple = ()

    @property
    def coker_wt_is_exact(self) -> bool:
        return isinstance(self.coker_wt, FGAbelianGroup)

    def to_json(self) -> dict:
        gamma = self.coker_gamma_bar
        return {
            "ev_cokernel": self.ev_cokernel.to_json(),
            "coker_gamma_bar": None if gamma is None else gamma.to_json(),
            "coker_wt": self.coker_wt.to_json(),
            "coker_wt_exact": self.coker_wt_is_exact,
            "poincare_exists": self.poincare_exists,
            "certificate": dict(self.exact_sequence_certificate),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# evaluation homomorphism


def evaluation_cokernel(g: ReductiveGroupData, delta: Pi1Element, lift=None) -> FGAbelianGroup:
    """Cokernel of the evaluation map: conditional forms on the derived
    lattice, as coefficients on the sc even forms, evaluated against (a lift
    of) delta^ss, landing in Lambda^*(T_D)/Lambda^*(T_Gad); independent of
    the lift."""
    _, (vals, denom) = _sc_evaluation(g, delta.lift(lift))
    ev = divide_exactly(vals.mul(_conditional_coefficients(g).basis), denom,
                        "conditional form fails integrality against delta^ss")
    return hom_cokernel(ev, _derived_quotient(g)[2])


def evaluation_cokernel_table(sc_group: ReductiveGroupData, delta_ad_coords) -> FGAbelianGroup:
    """Evaluation cokernel for 'D(G) = the given simply connected group and
    delta^ss the given class of pi_1(G^ad)', realized on the reductive group
    obtained by gluing a torus along the full center (the A-type instance of
    which is GL_n)."""
    glued, gens = with_central_torus(sc_group)
    coords = int_tuple(delta_ad_coords, "center class coordinates")
    if len(coords) != len(gens):
        raise ValueError(f"need {len(gens)} coordinates for the center classes")
    d = IntMatrix.from_columns(gens, glued.cochar_rank).mul_vector(coords)
    return evaluation_cokernel(glued, Pi1Element.from_cocharacter(glued, d), lift=d)


# ---------------------------------------------------------------------------
# genus-0 evaluation (hatted variant on the full sc form lattice)


@once_per_group
def _ev_hat_data(g: ReductiveGroupData, lift: tuple):
    """Domain sublattice {b on the sc lattice : b(d^ss, -) integral on the
    derived lattice}, cut on the evaluation into the derived quotient, with
    that evaluation on the domain and its cokernel, for a checked lift (kept
    on the group, so the genus-0 rigidified and gerbe computations share it)."""
    forms, target = sc_even_forms(g), _derived_quotient(g)[2]
    _, (vals, denom) = _sc_evaluation(g, lift)
    domain = solve_congruence_sublattice(forms.rank, [(row, denom) for row in vals.entries])
    ev = divide_exactly(vals.mul(domain.basis), denom, "evaluation of a domain form is not integral")
    return forms, domain, ev, target, hom_cokernel(ev, target)


# ---------------------------------------------------------------------------
# weight cokernel


def poincare_bundle_exists(d: int, f: CurveFamily) -> bool:
    """Mestrano-Ramanan criterion for the multiplicative group:
    gcd(delta(C/S), d + 1 - g) = 1, with gcd(0, m) = |m|."""
    return gcd(f.delta, d + 1 - f.genus) == 1


def _partial_matrix(g: ReductiveGroupData, rig, lift, genus: int) -> IntMatrix:
    """The connecting map on the rigidified NS basis: b -> (x -> b(d, x~) +
    (1-g) b(x~, x~)), read off as b(x~, d + (1-g) x~) by bilinearity, over
    the fixed lifts x~ of a basis of Lambda(G^ab)."""
    section = _derived_quotient(g)[0].ab_section
    pairs = [(xt, tuple(a + (1 - genus) * b for a, b in zip(lift, xt)))
             for xt in section.columns()]
    return rig.form_basis.values(pairs).mul(rig.key)


def _mod_delta_cokernel(m: IntMatrix, delta_cs: int) -> FGAbelianGroup:
    """(Z/delta)^rows divided by the column span of m: relations m and delta * I
    (delta = 0 gives Z^rows)."""
    n = m.rows
    return group_from_relations(n, m.hstack(IntMatrix.from_rows(
        [[delta_cs if i == j else 0 for j in range(n)] for i in range(n)], n)))


def torus_weight_cokernel_closed_form(genus: int, delta_cs: int, div: int, dim: int):
    """The printed closed form: Z/gcd(delta, div+1-g) + [Z/gcd(delta, g-1, div)]^(dim-1)."""
    parts = [FGAbelianGroup.cyclic(gcd(delta_cs, div + 1 - genus))]
    parts.extend(FGAbelianGroup.cyclic(gcd(delta_cs, gcd(genus - 1, div)))
                 for _ in range(dim - 1))
    return FGAbelianGroup.direct_sum(*parts)


def weight_cokernel(g: ReductiveGroupData, delta: Pi1Element, f: CurveFamily,
                    lift=None) -> GerbeReport:
    """Cokernel of the weight homomorphism (the gerbe obstruction kernel).

    Positive genus: coker(wt) is an extension of coker(ev) by the cokernel
    of the connecting map on the rigidified NS group, taken mod delta; it is
    exact whenever one of the two graded pieces vanishes (always for a torus,
    where coker(ev) is trivial and the result is checked against the printed
    closed form of Cor 4.5), otherwise reported as GradedPieces.
    Genus zero: the extension of the hatted evaluation cokernel by the
    2-divisibility kernel.
    """
    if f.genus == 0:
        return _weight_cokernel_genus0(g, delta, f, lift)
    require_hypotheses(f, g, "Thm4.4")
    lift = delta.lift(lift)
    notes = []
    delta_cs = f.delta
    ev_cok = evaluation_cokernel(g, delta, lift=lift)
    rig = ns_rigidified(g, delta, lift=lift)
    _, coker_gamma = _gamma_bar(g, lift, f.genus, delta_cs)
    pmat = _partial_matrix(g, rig, lift, f.genus)
    ab_rank = pmat.rows
    sub = _mod_delta_cokernel(pmat, delta_cs)      # Hom(Lambda(G^ab), Z/delta)/Im(partial)
    # coker(ev) is trivial for a torus, so there coker(wt) is the sub piece
    certificate = _bookkeeping(coker_gamma, sub if g.is_torus else None, delta_cs, ab_rank,
                               ev_cok)
    coker_wt, vanishing = _extension(sub, ev_cok)
    if g.is_torus:
        closed = torus_weight_cokernel_closed_form(
            f.genus, delta_cs, divisibility(lift, Lattice.full(ab_rank)), ab_rank)
        if coker_wt != closed:
            notes.append(f"closed-form mismatch for coker(wt): {coker_wt.describe()} "
                         f"vs printed {closed.describe()}")
        if coker_gamma != closed:
            notes.append(
                "diagnostic: printed closed form does not give the invariant "
                f"factors of coker(gamma-bar) (computed {coker_gamma.describe()}, "
                f"printed {closed.describe()}); the computed value is kept"
            )
    else:
        notes.append({
            "sub": "coker(wt) = coker(ev) (sub piece vanishes)",
            "quotient": "coker(wt) = Hom(Lambda(G^ab), Z/delta)/Im(partial) "
                        "(quotient piece vanishes)",
            None: "coker(wt) determined only up to extension; reporting graded pieces",
        }[vanishing])
    return GerbeReport(
        ev_cokernel=ev_cok,
        coker_gamma_bar=coker_gamma,
        coker_wt=coker_wt,
        poincare_exists=_poincare_check(g, lift, f, coker_wt),
        exact_sequence_certificate=certificate,
        notes=tuple(notes),
    )


def _extension(sub: FGAbelianGroup, quotient: FGAbelianGroup):
    """coker(wt) from its graded pieces, an extension of ``quotient`` by
    ``sub``: exact when one piece vanishes (the sub piece is tried first),
    else GradedPieces.  Returns it with the piece that vanished ("sub",
    "quotient" or None)."""
    if sub.is_trivial:
        return quotient, "sub"
    if quotient.is_trivial:
        return sub, "quotient"
    return GradedPieces(sub=sub, quotient=quotient), None


def _poincare_check(g: ReductiveGroupData, lift: tuple, f: CurveFamily, coker_wt):
    """For T(1), the Mestrano-Ramanan criterion, checked against coker(wt):
    a Poincare bundle exists iff coker(wt) vanishes.  None for other groups."""
    if not (g.is_torus and g.cochar_rank == 1):
        return None
    poincare = poincare_bundle_exists(lift[0], f)
    if poincare != (isinstance(coker_wt, FGAbelianGroup) and coker_wt.is_trivial):
        raise ArithmeticError("Poincare criterion disagrees with coker(wt)")
    return poincare


def _bookkeeping(coker_gamma, coker_wt, delta_cs, ab_rank, ev_cok) -> dict:
    cert = {
        "coker_gamma_order": coker_gamma.order(),
        "hom_order": delta_cs ** ab_rank if delta_cs else None,
        "ev_cokernel_order": ev_cok.order(),
    }
    if coker_wt is not None:
        cert["coker_wt_order"] = coker_wt.order()
        if (cert["coker_gamma_order"] is not None and cert["coker_wt_order"] is not None
                and cert["hom_order"] is not None):
            cert["exactness_holds"] = (
                cert["coker_gamma_order"] * cert["coker_wt_order"]
                == cert["hom_order"] * (ev_cok.order() or 1)
            )
    return cert


@once_per_group
def _gamma_bar(g: ReductiveGroupData, lift: tuple, genus: int, delta_cs: int):
    """(Im(gamma-bar), NS(rigidified)/Im(gamma-bar)) for a checked lift.

    The image is in coefficients on the rigidified NS basis: the forms for
    which some root-lattice character beta repairs the divisibility
    delta | beta(x) + b(d, x) + (g-1) b(x, x) at the basis vectors, as in
    ``picard._divisibility_image`` (the weight class of a line bundle on the
    rigidification is only zero modulo the root lattice, which makes this set
    lift-independent).  That routine reads the condition of Thm 3.18, with
    -b(d, x) where Thm 4.3 has +b(d, x), so it is passed the lift -d.  Kept
    on the group, so the rigidified and gerbe computations share it."""
    rig = _ns_rigidified(g, lift)
    key = rig.key
    members = IntMatrix.from_rows([(0,) * key.cols] * g.cochar_rank + list(key.entries), key.cols)
    image = _divisibility_image(members, _root_relations(g, key.rows),
                                tuple(-a for a in lift), genus, delta_cs, rig.form_basis)
    return image, group_from_relations(image.ambient_rank, image.basis)


def _weight_cokernel_genus0(g, delta, f, lift):
    require_hypotheses(f, g, "Thm4.6")
    lift = delta.lift(lift, generic=True)
    *_, ev_cok = _ev_hat_data(g, lift)
    two_div = _delta_ab_two_divisible(g, delta)
    kernel_piece = (FGAbelianGroup.trivial()
                    if f.delta == 1 or two_div else FGAbelianGroup.cyclic(2))
    coker_wt, vanishing = _extension(kernel_piece, ev_cok)
    notes = [] if vanishing else ["genus-0 coker(wt) reported as graded pieces"]
    cert = {
        "ev_cokernel_order": ev_cok.order(),
        "kernel_piece_order": kernel_piece.order(),
    }
    return GerbeReport(
        ev_cokernel=ev_cok,
        coker_gamma_bar=None,
        coker_wt=coker_wt,
        poincare_exists=_poincare_check(g, lift, f, coker_wt),
        exact_sequence_certificate=cert,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# rigidified Picard group


def rigidified_picard(g: ReductiveGroupData, delta: Pi1Element, f: CurveFamily,
                      lift=None) -> PicardReport:
    """Relative Picard group of the rigidified stack: in positive genus the
    image of the connecting map inside the rigidified NS group, in genus zero
    the kernel of the hatted evaluation map."""
    if f.genus > 0:
        require_hypotheses(f, g, "Thm4.3")
        image, cok = _gamma_bar(g, delta.lift(lift), f.genus, f.delta)
        ab_rank = _derived_quotient(g)[0].ab_rank
        return PicardReport(
            theorem_applied="Thm4.3",
            kernel_summand=f"chars(G^ab) (rank {ab_rank}) x RPic^0(C/S) (formal)",
            image_lattice=image,
            image_ambient="coefficients on the rigidified NS basis",
            cokernel=cok,
            image_index=cok.order(),
            splitting_known=None,
            notes=("image of the connecting map inside NS(rigidified), divisibility "
                   "condition absorbed modulo the root lattice",),
        )
    require_hypotheses(f, g, "Thm4.6")
    lift = delta.lift(lift, generic=True)
    forms, domain, ev, target, ev_cok = _ev_hat_data(g, lift)
    kernel = preimage_lattice(ev, target)
    kernel_cols = [domain.basis.mul_vector(c) for c in kernel.basis.columns()]
    kernel_in_forms = Lattice.from_columns(forms.rank, kernel_cols)
    return PicardReport(
        theorem_applied="Thm4.6",
        kernel_summand="0",
        image_lattice=kernel_in_forms,
        image_ambient="coefficients on the even invariant sc forms",
        cokernel=FGAbelianGroup.free(kernel_in_forms.rank),
        image_index=None,
        splitting_known=None,
        notes=(f"RPic(rigidified) = ker(ev-hat), coker(ev-hat) = {ev_cok.describe()}",),
    )
