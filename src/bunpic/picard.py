"""Picard-group computations: tautological class invariants, the torus cases
(genus zero and positive), and the reductive cases gated by their hypotheses.

The relative Picard group of the base family is never computed (it is not
determined by the numerical record); reports carry it as a formal kernel
summand and make the discrete content explicit: image lattices, cokernels,
and the completeness / splitting flags the theorems provide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    group_from_relations,
    quotient_group,
    solve_congruence_sublattice,
)
from .family import CurveFamily, hypothesis_check
from .invariant_forms import (
    BilinearForm,
    FormLattice,
    NSGroup,
    _derived_quotient,
    conditional_form_lattice,
    invariant_sym_forms,
    ns_bun,
    ns_bun_p1,
)
from .root_datum import Pi1Element, ReductiveGroupData


class WrongGenus(ValueError):
    """Operation invoked for a family of the wrong genus."""


class GenusZero(ValueError):
    """gamma/rho invariants are only defined in positive genus."""


class HypothesisNotSatisfied(Exception):
    """A theorem's stated hypotheses fail for this family/group."""

    def __init__(self, theorem: str, missing):
        self.theorem = theorem
        self.missing = tuple(missing)
        super().__init__(f"{theorem} hypotheses not satisfied: " + "; ".join(self.missing))


def require_hypotheses(f: CurveFamily, g: ReductiveGroupData, theorem: str) -> None:
    """Raise HypothesisNotSatisfied unless the theorem's hypotheses hold."""
    gate = hypothesis_check(f, g, theorem)
    if not gate:
        raise HypothesisNotSatisfied(theorem, gate.missing)


# ---------------------------------------------------------------------------
# tautological classes


@dataclass(frozen=True)
class TautClass:
    """Formal Z-combination of determinant-of-cohomology and Deligne-pairing
    generators; line bundles on the curve enter only through their relative
    degree."""

    det_terms: tuple = ()    # (chi, deg_m, mult)
    pair_terms: tuple = ()   # (chi, mu, deg_m, deg_n, mult)

    @staticmethod
    def of(det_terms=(), pair_terms=()) -> "TautClass":
        det = tuple((tuple(c), int(a), int(m)) for c, a, m in det_terms)
        pair = tuple(
            (tuple(c), tuple(u), int(a), int(b), int(m)) for c, u, a, b, m in pair_terms
        )
        return TautClass(det, pair)

    def rank(self) -> int:
        for c, *_ in self.det_terms:
            return len(c)
        for c, *_ in self.pair_terms:
            return len(c)
        return 0


def taut_weight(torus_rank: int, d, genus: int, c: TautClass) -> tuple:
    """The character by which the torus acts on fibers, extended Z-linearly:
    det terms weigh [chi(d) + deg(M) + 1 - g] chi, pairings
    [mu(d) + deg(N)] chi + [chi(d) + deg(M)] mu."""
    d = tuple(d)
    if len(d) != torus_rank:
        raise ValueError("cocharacter has wrong length")
    out = [0] * torus_rank
    for chi, deg_m, mult in c.det_terms:
        coef = sum(a * b for a, b in zip(chi, d)) + deg_m + 1 - genus
        for i in range(torus_rank):
            out[i] += mult * coef * chi[i]
    for chi, mu, deg_m, deg_n, mult in c.pair_terms:
        chi_d = sum(a * b for a, b in zip(chi, d))
        mu_d = sum(a * b for a, b in zip(mu, d))
        for i in range(torus_rank):
            out[i] += mult * ((mu_d + deg_n) * chi[i] + (chi_d + deg_m) * mu[i])
    return tuple(out)


def taut_gamma(genus: int, c: TautClass) -> BilinearForm:
    """Symmetric-form component: chi x chi on determinants, the symmetrized
    product on pairings; only defined in positive genus."""
    if genus <= 0:
        raise GenusZero("gamma is defined for families of positive genus")
    n = c.rank()
    gram = [[0] * n for _ in range(n)]
    for chi, _deg, mult in c.det_terms:
        for i in range(n):
            for j in range(n):
                gram[i][j] += mult * chi[i] * chi[j]
    for chi, mu, _dm, _dn, mult in c.pair_terms:
        for i in range(n):
            for j in range(n):
                gram[i][j] += mult * (chi[i] * mu[j] + mu[i] * chi[j])
    return BilinearForm(IntMatrix.from_rows(gram))


def taut_rho(genus: int, c: TautClass) -> tuple:
    """Values x -> sum mult * chi(x)^2 mod 2 on the basis of the cocharacter
    lattice (pairings contribute evenly, hence vanish)."""
    if genus <= 0:
        raise GenusZero("rho is defined for families of positive genus")
    n = c.rank()
    out = []
    for i in range(n):
        v = sum(mult * chi[i] * chi[i] for chi, _d, mult in c.det_terms)
        out.append(v % 2)
    return tuple(out)


def base_component(c: TautClass) -> tuple:
    """Degree-tagged determinant bookkeeping of the underlying classes on the
    base: pairings reduce by the determinant-of-cohomology product formula
    <M, N> = d(M x N) - d(M) - d(N) + d(O).  Canonical sorted tuple."""
    acc: dict = {}

    def bump(deg, mult):
        acc[deg] = acc.get(deg, 0) + mult
        if acc[deg] == 0:
            del acc[deg]

    for _chi, deg_m, mult in c.det_terms:
        bump(deg_m, mult)
    for _chi, _mu, a, b, mult in c.pair_terms:
        bump(a + b, mult)
        bump(a, -mult)
        bump(b, -mult)
        bump(0, mult)
    return tuple(sorted(acc.items()))


def relation_3_4_check(chi, mu, deg_m: int, deg_n: int, d, genus: int,
                       corrupt: bool = False) -> bool:
    """Check that a Deligne pairing and its determinant-of-cohomology
    expansion have identical computable invariants (weight, and in positive
    genus the form and mod-2 components, plus the base bookkeeping).

    ``corrupt=True`` drops the constant determinant factor from the expansion,
    which the base bookkeeping must detect."""
    chi, mu = tuple(chi), tuple(mu)
    n = len(chi)
    lhs = TautClass.of(pair_terms=[(chi, mu, deg_m, deg_n, 1)])
    det = [
        (tuple(a + b for a, b in zip(chi, mu)), deg_m + deg_n, 1),
        (chi, deg_m, -1),
        (mu, deg_n, -1),
    ]
    if not corrupt:
        det.append((tuple(0 for _ in range(n)), 0, 1))
    rhs = TautClass.of(det_terms=det)
    if taut_weight(n, d, genus, lhs) != taut_weight(n, d, genus, rhs):
        return False
    if base_component(lhs) != base_component(rhs):
        return False
    if genus > 0:
        if taut_gamma(genus, lhs).gram != taut_gamma(genus, rhs).gram:
            return False
        if taut_rho(genus, lhs) != taut_rho(genus, rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ExtensionRow:
    kernel: str
    middle: str
    image: str
    surjective: bool


@dataclass(frozen=True)
class PicardReport:
    theorem_applied: str
    kernel_summand: str
    image_lattice: Lattice | None = None
    image_ambient: str = ""
    cokernel: FGAbelianGroup | None = None
    cokernel_generators: tuple = ()
    image_index: int | None = None
    splitting_known: bool | None = None
    complete: bool | None = None
    rows: tuple = ()
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_applied,
            "kernel_summand": self.kernel_summand,
            "image_lattice": None if self.image_lattice is None else {
                "ambient_rank": self.image_lattice.ambient_rank,
                "basis": [list(c) for c in self.image_lattice.basis.columns()],
            },
            "image_ambient": self.image_ambient,
            "cokernel": None if self.cokernel is None else self.cokernel.to_json(),
            "image_index": self.image_index,
            "splitting_known": self.splitting_known,
            "complete": self.complete,
            "rows": [
                {"kernel": r.kernel, "middle": r.middle, "image": r.image,
                 "surjective": r.surjective}
                for r in self.rows
            ],
            "notes": list(self.notes),
        }


def _require_torus(t: ReductiveGroupData) -> None:
    if not t.is_torus:
        raise ValueError("expected a torus (no simple factors)")


def torus_picard_genus0(t: ReductiveGroupData, d, f: CurveFamily) -> PicardReport:
    """Genus-zero torus: the weight embeds RPic into the character lattice;
    the image is everything for Zariski-locally trivial families and the
    even-pairing sublattice {chi : chi(d) even} otherwise."""
    _require_torus(t)
    if f.genus != 0:
        raise WrongGenus("torus_picard_genus0 needs a genus-0 family")
    n = t.cochar_rank
    d = tuple(d)
    if f.zariski_locally_trivial:
        image = Lattice.full(n)
    else:
        image = solve_congruence_sublattice(n, [(d, 2)])
    cok = quotient_group(Lattice.full(n), image)
    return PicardReport(
        theorem_applied="Thm3.6",
        kernel_summand="0 (weight is injective on RPic)",
        image_lattice=image,
        image_ambient="character lattice of T",
        cokernel=cok,
        image_index=cok.order(),
        complete=True,
        notes=("Pic = Pic^taut in genus zero",),
    )


def _test_points(n: int) -> list:
    """The basis vectors e_i, then the sums e_i + e_j for i < j."""
    return ([tuple(int(k == i) for k in range(n)) for i in range(n)]
            + [tuple(int(k in (i, j)) for k in range(n))
               for i in range(n) for j in range(i + 1, n)])


def _divisibility_conditions(n: int, d, genus: int, delta_cs: int, forms: FormLattice):
    """Linear congruence conditions (on chi coordinates + form coefficients)
    expressing: delta(C/S) divides chi(x) - b(d, x) + (g-1) b(x, x) for all x.
    The form part is read off as b(x, (g-1) x - d), by bilinearity.

    It is enough to impose the condition at the basis vectors e_i and the
    sums e_i + e_j: the defect c(x+y) - c(x) - c(y) = 2(g-1) b(x, y) is
    generated by the pairwise conditions, and the remaining diagonal defect
    (g-1)(k^2-k) b(x, x) lies in (2g-2) Z, a multiple of delta(C/S) for every
    valid family (in genus 1 the quadratic part vanishes outright).
    """
    points = _test_points(n)
    vals = forms.values([(x, tuple((genus - 1) * a - b for a, b in zip(x, d))) for x in points])
    return [(x + vals.row(i), delta_cs) for i, x in enumerate(points)]


def torus_picard(t: ReductiveGroupData, d, f: CurveFamily) -> PicardReport:
    """Positive-genus torus: the three extension presentations of the
    tautological Picard group, the image lattice of weight + form, and the
    completeness flag for Pic = Pic^taut."""
    _require_torus(t)
    if f.genus <= 0:
        raise WrongGenus("torus_picard needs a family of positive genus")
    n = t.cochar_rank
    d = tuple(d)
    forms = invariant_sym_forms(t)
    conds = _divisibility_conditions(n, d, f.genus, f.delta, forms)
    image = solve_congruence_sublattice(n + forms.rank, conds)
    cok = group_from_relations(n + forms.rank, image.basis)
    complete = hypothesis_check(f, t, "Thm3.9")
    rows = (
        ExtensionRow("char lattice x RPic^0(C/S)", "RPic^taut",
                     "image of weight + form inside char x Bil^s", False),
        ExtensionRow("char lattice x RPic(C/S)", "RPic^taut", "Bil^s (all symmetric forms)", True),
        ExtensionRow("char lattice x RPic(C/S) + Sym^2 chars", "RPic^taut",
                     "Hom(cochar lattice, Z/2)", True),
    )
    notes = ["weight+form image computed from the divisibility condition at basis and pairwise sums"]
    if f.delta == 0:
        notes.append("delta(C/S) = 0: divisibility conditions are exact vanishing")
    if not complete:
        notes.append("Pic = Pic^taut not certified: " + "; ".join(complete.missing))
    return PicardReport(
        theorem_applied="Thm3.8",
        kernel_summand=f"char lattice (rank {n}) x RPic^0(C/S) (formal)",
        image_lattice=image,
        image_ambient="char lattice + Bil^s coordinates (pairs i<=j)",
        cokernel=cok,
        image_index=cok.order(),
        splitting_known=False,
        complete=bool(complete),
        rows=rows,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# reductive groups


def _ns_image_sublattice(ns: NSGroup, genus: int, delta_cs: int) -> Lattice:
    """Members of NS(Bun) satisfying the divisibility condition, computed in
    the ambient (chi, form-coefficient) coordinates.  The weight entry of an
    NS class is only a class modulo the root lattice, so the condition is
    intersected after adjoining the root-lattice directions: a class belongs
    to the image iff some representative satisfies the congruences."""
    n = ns.chi_rank
    conds = _divisibility_conditions(n, ns.lift, genus, delta_cs, ns.form_basis)
    cond_lat = solve_congruence_sublattice(n + ns.form_basis.rank, conds)
    rel_lat = Lattice.from_columns(cond_lat.ambient_rank, ns.relations.columns())
    return Lattice(ns.key.rows, ns.key).intersection(cond_lat.sum(rel_lat))


def reductive_picard(g: ReductiveGroupData, delta: Pi1Element, f: CurveFamily,
                     lift=None) -> PicardReport:
    """Picard report for a reductive group: in positive genus the pull-back /
    transgression extension (with the NS-level image when the stronger
    hypotheses hold), in genus zero the embedding into NS Bun(P^1) with its
    image and index."""
    if f.genus > 0:
        return _reductive_picard_positive(g, delta, f, lift)
    return _reductive_picard_genus0(g, delta, f, lift)


def _reductive_picard_positive(g, delta, f, lift):
    require_hypotheses(f, g, "ThmB")
    lift = delta.lift(lift)     # checked even where the NS-level image is skipped
    cd = _derived_quotient(g)[0]
    cfl = conditional_form_lattice(g)
    s = cfl.rank
    theorem = "Thm3.14" if cd.derived_simply_connected else "Thm3.16"
    notes = []
    if g.is_semisimple:
        notes.append(
            "Cor C: RPic Bun is the lattice of even invariant forms, free of rank "
            f"{s} on the basic inner products"
        )
        theorem = theorem + "+CorC"
    image = None
    ambient = ""
    cok = FGAbelianGroup.free(s)
    index = None
    ns_hyp = hypothesis_check(f, g, "Thm4.3")  # same hypotheses as Thm 3.18
    if ns_hyp:
        ns = ns_bun(g, delta, lift=lift)
        image = _ns_image_sublattice(ns, f.genus, f.delta)
        ambient = ("NS(Bun) coordinates: characters then d-even form coefficients, "
                   "classes taken modulo the root lattice")
        img_cok = quotient_group(Lattice(ns.key.rows, ns.key), image)   # image holds the relations
        index = img_cok.order()
        notes.append(
            f"Thm 3.18 image inside NS(Bun): cokernel {img_cok.describe()} "
            f"(NS group {ns.group.describe()})"
        )
    else:
        notes.append("NS-level image skipped: " + "; ".join(ns_hyp.missing))
    if f.delta == 0:
        notes.append("delta(C/S) = 0 family: divisibility read as exact vanishing; "
                     "quotient-stack base hypotheses still apply")
    return PicardReport(
        theorem_applied=theorem,
        kernel_summand=f"Pic Bun_G^ab (pull-back; G^ab of rank {cd.ab_rank}, kernel data formal)",
        image_lattice=image,
        image_ambient=ambient,
        cokernel=cok,
        cokernel_generators=tuple(cfl.basis_forms),
        image_index=index,
        splitting_known=cd.derived_simply_connected,
        complete=None,
        notes=tuple(notes),
    )


def _reductive_picard_genus0(g, delta, f, lift):
    if f.genus != 0:
        raise WrongGenus("internal: genus-0 branch")
    ns = ns_bun_p1(g, delta, lift=lift)
    n = ns.chi_rank
    total = n + ns.form_basis.rank
    members = Lattice(total, ns.key)
    if f.zariski_locally_trivial:
        image = members
        cok = FGAbelianGroup.trivial()
    else:
        parity = solve_congruence_sublattice(total, [(ns.lift + (0,) * ns.form_basis.rank, 2)])
        certs = Lattice(total, ns.certificates)
        even_certs = certs.intersection(parity)
        rels = Lattice.from_columns(total, ns.relations.columns())
        image = even_certs.sum(rels)
        cok = quotient_group(members, image)
    index = cok.order()
    # Cor 3.21 bookkeeping: coker(c) is an extension of coker(p) by the
    # genus-0 abelianized weight cokernel
    delta_ab_two_divisible = _delta_ab_two_divisible(g, delta)
    wt_ab_order = 1 if (f.zariski_locally_trivial or delta_ab_two_divisible) else 2
    notes = (
        f"image computed per the parity condition on l(delta^ab) + b(d^ss, d^ss)",
        f"Cor 3.21: coker(p) has order {index // wt_ab_order if index else None}"
        f" (coker wt_ab order {wt_ab_order})",
    )
    return PicardReport(
        theorem_applied="Thm3.20",
        kernel_summand="0 (c is injective on RPic)",
        image_lattice=image,
        image_ambient="NS Bun(P^1) coordinates: characters then sc form coefficients, "
                      "classes modulo the root lattice",
        cokernel=cok,
        image_index=index,
        splitting_known=None,
        complete=True,
        notes=notes,
    )


def _delta_ab_two_divisible(g: ReductiveGroupData, delta: Pi1Element) -> bool:
    """Whether the image of delta in the cocharacter lattice of G^ab is
    2-divisible."""
    ab = _derived_quotient(g)[0].ab_projection.mul_vector(delta.lift())
    return all(x % 2 == 0 for x in ab)
