"""Numerical invariants of a family of curves and the hypothesis flags that
gate each theorem realization.

A family enters the computations only through: its genus, the minimal
positive relative degree of a line bundle (``delta = 0`` encoding the
non-locally-projective case), and boolean hypothesis flags.  Flags are data,
not inferences; the only derivations applied are the implication rules the
catalog itself justifies (a section forces surjectivity of
``Pic(C) -> Pic_{C/S}(S)``, and so does ``delta = 1``).
"""

from math import gcd

from .record import asdict, fields, record, replace
from .root_datum import ReductiveGroupData, cross_diagram, echo, json_field, json_object


class InvalidPreset(ValueError):
    """Unknown preset name."""


class InvalidParams(ValueError):
    """Preset parameters out of range."""


class UnknownTheorem(ValueError):
    """Theorem identifier not in the supported list."""


@record
class CurveFamily:
    """Numerical record of a family of curves C/S."""

    genus: int
    delta: int
    has_section: bool = False
    zariski_locally_trivial: bool = False
    end_jacobian_trivial: bool = False
    rpic_surjective: bool = False
    rpic0_torsion_free: bool = False
    label: str = ""

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj) -> "CurveFamily":
        """Each field of its declared type (so annotations are not postponed here)."""
        declared = fields(CurveFamily)
        json_object(obj, "family", [f.name for f in declared])
        return CurveFamily(**{f.name: json_field(obj, f.name, f.type, f.default)
                              for f in declared})


@record
class Violation:
    invariant: str
    detail: str

    def __str__(self):
        return f"{self.invariant}: {self.detail}"


def _delta_violation(genus: int, delta: int) -> Violation:
    return Violation("delta-divides-2g-2", f"delta = {delta} does not divide 2g-2 = {2 * genus - 2}")


def require_delta_divides_2g_2(genus: int, delta: int) -> None:
    """Raise ValueError, with the text of the delta-divides-2g-2 violation,
    unless delta | 2g-2 (0 divides only 0, so delta = 0 needs genus 1).
    Every real family meets it; ``validate_family`` names the locally
    projective violation instead where delta = 0 and the genus is not 1."""
    if (2 * genus - 2) % delta if delta else genus != 1:
        raise ValueError(str(_delta_violation(genus, delta)))


def validate_family(f: CurveFamily) -> list:
    """All invariant violations of the record; empty iff consistent."""
    out = []
    if f.genus < 0 or f.delta < 0:
        out.append(Violation("nonnegative", "genus and delta must be nonnegative"))
        return out
    if f.genus >= 2 and f.delta > 0 and (2 * f.genus - 2) % f.delta:
        out.append(_delta_violation(f.genus, f.delta))
    if f.delta == 0 and f.genus != 1:
        out.append(Violation(
            "locally-projective",
            "delta = 0 (not locally projective) only occurs in genus 1",
        ))
    if f.delta == 0 and f.has_section:
        out.append(Violation(
            "locally-projective",
            "a family with a section is locally projective, so delta > 0",
        ))
    if f.genus == 0:
        if f.delta not in (1, 2):
            out.append(Violation("genus0-delta", "genus 0 forces delta in {1, 2}"))
        elif (f.delta == 1) != f.zariski_locally_trivial:
            out.append(Violation(
                "genus0-delta",
                "delta = 1 iff the genus-0 family is Zariski-locally trivial",
            ))
        if f.zariski_locally_trivial != f.has_section:
            out.append(Violation(
                "genus0-triviality",
                "a genus-0 family is Zariski-locally trivial iff it has a section",
            ))
    if f.has_section and not f.rpic_surjective:
        out.append(Violation(
            "rpic-surjective",
            "a section forces Pic(C) ->> Pic_{C/S}(S)",
        ))
    if f.delta == 1 and not f.rpic_surjective:
        out.append(Violation(
            "rpic-surjective",
            "delta = 1 forces Pic(C) ->> Pic_{C/S}(S)",
        ))
    return out


def _require(cond: bool, exc: str) -> None:
    if not cond:
        raise InvalidParams(exc)


def family_from_preset(name: str, *params: int) -> CurveFamily:
    """Catalog of families with known delta; see the module docstring for the
    flag policy."""
    name = name.lower()
    for p in params:
        _require(type(p) is int,
                 f"{echo(name)} parameters must be integers, not {echo(repr(p))}")
    if name == "universal":
        _require(len(params) == 2, "universal(g, n)")
        g, n = params
        _require(g >= 0 and n >= 0, "universal needs g, n >= 0")
        fam = CurveFamily(
            genus=g,
            delta=abs(2 * g - 2) if n == 0 else 1,
            has_section=n > 0,
            zariski_locally_trivial=(g == 0 and n > 0),
            end_jacobian_trivial=True,
            rpic_surjective=(n > 0 or g >= 2),
            rpic0_torsion_free=True,
            label=f"universal({g},{n})",
        )
    elif name == "plane_curve":
        _require(len(params) == 1, "plane_curve(d)")
        (d,) = params
        _require(d >= 1, "plane_curve needs d >= 1")
        g = (d - 1) * (d - 2) // 2
        fam = CurveFamily(
            genus=g,
            delta=d,
            has_section=(d == 1),
            zariski_locally_trivial=(g == 0 and d == 1),
            end_jacobian_trivial=True,
            rpic_surjective=(d == 1),
            rpic0_torsion_free=(g == 0),
            label=f"plane_curve({d})",
        )
    elif name == "complete_intersection":
        _require(len(params) >= 1, "complete_intersection(d1, ..., d_{r-1})")
        _require(all(d >= 1 for d in params), "degrees must be >= 1")
        deg = 1
        for d in params:
            deg *= d
        r = len(params) + 1
        twog2 = deg * (sum(params) - r - 1)
        _require(twog2 % 2 == 0 and twog2 >= -2, "not a curve type")
        g = (twog2 + 2) // 2
        fam = CurveFamily(
            genus=g,
            delta=deg if g != 0 else (1 if deg % 2 else 2),
            end_jacobian_trivial=True,
            rpic_surjective=(deg == 1),
            rpic0_torsion_free=(g == 0),
            label="complete_intersection(" + ",".join(map(str, params)) + ")",
        )
        if g == 0:
            fam = replace(fam, zariski_locally_trivial=fam.delta == 1,
                          has_section=fam.delta == 1,
                          rpic_surjective=fam.delta == 1)
    elif name == "k3_hyperplane":
        _require(len(params) == 1, "k3_hyperplane(g)")
        (g,) = params
        _require(g >= 3, "k3_hyperplane needs g >= 3")
        fam = CurveFamily(genus=g, delta=2 * g - 2, end_jacobian_trivial=False,
                          label=f"k3_hyperplane({g})")
    elif name == "hyperelliptic":
        _require(len(params) == 1, "hyperelliptic(g)")
        (g,) = params
        _require(g >= 2, "hyperelliptic needs g >= 2")
        fam = CurveFamily(
            genus=g,
            delta=4 if g % 2 else 2,
            end_jacobian_trivial=True,
            label=f"hyperelliptic({g})",
        )
    elif name in ("hurwitz", "severi"):
        _require(len(params) == 2, f"{name}(g, d)")
        g, d = params
        r = 1 if name == "hurwitz" else 2
        rho = g - (r + 1) * (g + r - d)
        _require(rho >= 2, f"{name} needs rho = g - (r+1)(g+r-d) >= 2 (got {rho})")
        fam = CurveFamily(
            genus=g,
            delta=gcd(2 * g - 2, d),
            end_jacobian_trivial=True,
            label=f"{name}({g},{d})",
        )
        if fam.delta == 1:
            fam = replace(fam, rpic_surjective=True)
    elif name == "fixed_curve":
        _require(len(params) == 1, "fixed_curve(g)")
        (g,) = params
        _require(g >= 0, "fixed_curve needs g >= 0")
        fam = CurveFamily(
            genus=g,
            delta=1,
            has_section=True,
            zariski_locally_trivial=(g == 0),
            end_jacobian_trivial=False,
            rpic_surjective=True,       # Br(k) = 0 over an algebraically closed field
            rpic0_torsion_free=False,   # the Picard variety of a curve is divisible
            label=f"fixed_curve({g})",
        )
    elif name == "genus0_trivial":
        _require(len(params) == 0, "genus0_trivial takes no parameters")
        fam = CurveFamily(genus=0, delta=1, has_section=True,
                          zariski_locally_trivial=True, end_jacobian_trivial=True,
                          rpic_surjective=True, rpic0_torsion_free=True,
                          label="genus0_trivial")
    elif name == "genus0_nontrivial":
        _require(len(params) == 0, "genus0_nontrivial takes no parameters")
        fam = CurveFamily(genus=0, delta=2, end_jacobian_trivial=True,
                          rpic0_torsion_free=True, label="genus0_nontrivial")
    else:
        raise InvalidPreset(f"unknown preset {echo(repr(name))}")
    return fam


PRESET_NAMES = (
    "universal", "plane_curve", "complete_intersection", "k3_hyperplane",
    "hyperelliptic", "hurwitz", "severi", "fixed_curve", "genus0_trivial",
    "genus0_nontrivial",
)


# ---------------------------------------------------------------------------
# hypothesis gates


@record
class HypothesisResult:
    theorem: str
    satisfied: bool
    missing: tuple

    def __bool__(self):
        return self.satisfied


THEOREMS = ("Thm3.9", "ThmB", "CorC", "Thm4.3", "Thm4.4", "Thm4.6")


def hypothesis_check(f: CurveFamily, g: ReductiveGroupData, theorem: str) -> HypothesisResult:
    """Evaluate exactly the stated hypotheses of the given theorem for this
    family and group."""
    if theorem not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem {theorem!r}; known: {THEOREMS}")
    missing = []
    if theorem == "Thm3.9":
        if f.genus <= 0:
            missing.append("family of positive genus")
        if not f.end_jacobian_trivial:
            missing.append("End(J) = Z at the geometric generic point")
        if not f.rpic_surjective:
            missing.append("Pic(C) ->> Pic_{C/S}(S)")
    elif theorem in ("ThmB", "CorC"):
        if f.genus <= 0:
            missing.append("family of positive genus")
        alt_b = f.end_jacobian_trivial and f.rpic_surjective and f.rpic0_torsion_free
        if not (alt_b or cross_diagram(g).derived_simply_connected):
            missing.append(
                "(a) D(G) simply connected, or (b) End(J) = Z, Pic(C) ->> "
                "Pic_{C/S}(S) and RPic^0(C/S) torsion-free"
            )
    elif theorem in ("Thm4.3", "Thm4.4"):
        if f.genus <= 0:
            missing.append("family of positive genus")
        if not (f.end_jacobian_trivial and f.rpic_surjective):
            missing.append("End(J) = Z and Pic(C) ->> Pic_{C/S}(S)")
        if not (f.rpic0_torsion_free or cross_diagram(g).derived_simply_connected):
            missing.append("RPic^0(C/S) torsion-free or D(G) simply connected")
    elif theorem == "Thm4.6":
        if f.genus != 0:
            missing.append("family of genus zero")
        if not (f.zariski_locally_trivial or cross_diagram(g).derived_simply_connected):
            missing.append("(a) Zariski-locally trivial family or (b) D(G) simply connected")
    return HypothesisResult(theorem, not missing, tuple(missing))
