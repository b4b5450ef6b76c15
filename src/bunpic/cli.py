"""Command-line front end: parse a group and a family, run the requested
engines, and emit deterministic text or JSON reports.

Exit codes: 0 success, 1 input error, 2 hypothesis failure (unconditional
results are still emitted).  JSON output is byte-deterministic: canonical
forms everywhere and sorted keys.

Batch mode runs the lines of its file in order and prints, for each, the
report or, for a line that is not a valid run config, one error record.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact_algebra import FGAbelianGroup
from .family import (
    CurveFamily,
    PRESET_NAMES,
    THEOREMS,
    family_from_preset,
    hypothesis_check,
    validate_family,
)
from .gerbe import poincare_bundle_exists, rigidified_picard, weight_cokernel
from .invariant_forms import (
    FormLattice,
    conditional_form_lattice,
    d_even_forms,
    even_invariant_forms,
    invariant_sym_forms,
    ns_bun,
    ns_bun_p1,
    ns_rigidified,
)
from .picard import (
    HypothesisNotSatisfied,
    WrongGenus,
    reductive_picard,
    torus_picard,
    torus_picard_genus0,
)
from .record import record
from .root_datum import (
    InputError,
    Pi1Element,
    ReductiveGroupData,
    build_group,
    echo,
    group_from_json,
    group_to_json,
    int_tuple,
    json_field,
    json_object,
    parse_group_spec,
    too_many_digits,
)

COMPUTATIONS = ("pi1", "forms", "ns", "picard", "rigidified", "gerbe", "poincare")
SCHEMA_VERSION = 1


@record
class RunConfig:
    group_text: str
    delta: tuple
    family: CurveFamily
    compute: tuple
    lift_d: tuple | None = None

    @staticmethod
    def from_json(obj) -> "RunConfig":
        """The run of a batch line; its values are checked, never coerced."""
        json_object(obj, "run config", ("group", "family", "delta", "lift_d", "compute"))
        family = json_field(obj, "family", (str, dict))
        lift_d = json_field(obj, "lift_d", ([int], None), None)
        return RunConfig(
            group_text=json_field(obj, "group", str),
            delta=tuple(json_field(obj, "delta", [int], [])),
            family=parse_family(family) if type(family) is str else CurveFamily.from_json(family),
            compute=tuple(json_field(obj, "compute", [str], ["picard"])),
            lift_d=None if lift_d is None else tuple(lift_d),
        )


# input errors: ``main`` reports them with exit code 1, batch mode per line
INPUT_ERRORS = (ValueError, OSError, KeyError, TypeError)


def _comma_ints(what: str, text: str) -> list:
    """The integers of a comma-separated list, each read by ``int_tuple``;
    blank items are skipped."""
    return list(int_tuple([x for x in text.split(",") if x.strip()], what))


def _parse_json(text: str):
    """``json.loads(text)``; nesting too deep for the parser, or an integer
    too long to read, is an InputError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the parser's one other refusal: a number past the int -> str limit
        raise too_many_digits("JSON") from None


def _json_input(text: str):
    """The JSON of ``text``: inline (``{...}``) or the contents of ``@file``."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return _parse_json(fh.read())
    return _parse_json(text)


def load_group(text: str) -> ReductiveGroupData:
    text = text.strip()
    if text.startswith(("@", "{")):
        return group_from_json(_json_input(text))
    return build_group(parse_group_spec(text))


def parse_family(text: str) -> CurveFamily:
    text = text.strip()
    if text.startswith(("@", "{")):
        return CurveFamily.from_json(_json_input(text))
    name, _, rest = text.partition(":")
    return family_from_preset(name, *_comma_ints(f"{echo(name)} parameters", rest))


def _form_lattice_json(fl: FormLattice) -> dict:
    return {
        "ambient_rank": fl.ambient_rank,
        "rank": fl.rank,
        "basis_grams": [f.gram.to_lists() for f in fl.basis_forms],
    }


def _ns_json(ns) -> dict:
    return {
        "group": ns.group.to_json(),
        "generators": [
            {"chi": None if chi is None else list(chi), "gram": form.gram.to_lists()}
            for chi, form in ns.generators
        ],
        "lift": list(ns.lift),
    }


def run_report(cfg: RunConfig):
    """Run the requested computations; returns (exit_code, report dict)."""
    warnings = []
    try:
        group = load_group(cfg.group_text)
    except INPUT_ERRORS as exc:
        raise InputError(f"group: {exc}") from exc
    violations = validate_family(cfg.family)
    if violations:
        raise InputError("family: " + "; ".join(str(v) for v in violations))
    delta = Pi1Element.from_coords(group, cfg.delta)
    d = delta.lift(cfg.lift_d)
    # lift stays None when not given: ns_bun_p1 and the genus-0 engines pick a generic one
    lift = cfg.lift_d
    unknown = [c for c in cfg.compute if c not in COMPUTATIONS]
    if unknown:
        raise InputError(f"unknown computations {echo(str(unknown))}; known: {COMPUTATIONS}")

    f = cfg.family
    results: dict = {}
    exit_code = 0

    def guard(name, fn):
        nonlocal exit_code
        try:
            results[name] = fn()
        except HypothesisNotSatisfied as exc:
            warnings.append({
                "computation": name,
                "theorem": exc.theorem,
                "missing": list(exc.missing),
            })
            exit_code = 2
        except WrongGenus as exc:
            raise InputError(f"{name}: {exc}") from exc

    if "pi1" in cfg.compute:
        results["pi1"] = delta.presentation.group.to_json()
    if "forms" in cfg.compute:
        results["forms"] = {
            "invariant": _form_lattice_json(invariant_sym_forms(group)),
            "even": _form_lattice_json(even_invariant_forms(group)),
            "conditional": _form_lattice_json(conditional_form_lattice(group)),
            "d_even": _form_lattice_json(d_even_forms(group)),
        }
    if "ns" in cfg.compute:
        results["ns"] = {
            "bun": _ns_json(ns_bun(group, delta, lift=lift)),
            "rigidified": _ns_json(ns_rigidified(group, delta, lift=lift)),
            "bun_p1": _ns_json(ns_bun_p1(group, delta, lift=lift)),
        }
    if "picard" in cfg.compute:
        def picard_fn():
            if group.is_torus:
                if f.genus == 0:
                    return torus_picard_genus0(group, d, f).to_json()
                return torus_picard(group, d, f).to_json()
            return reductive_picard(group, delta, f, lift=lift).to_json()

        guard("picard", picard_fn)
    if "rigidified" in cfg.compute:
        guard("rigidified", lambda: rigidified_picard(group, delta, f, lift=lift).to_json())
    if "gerbe" in cfg.compute:
        guard("gerbe", lambda: weight_cokernel(group, delta, f, lift=lift).to_json())
    if "poincare" in cfg.compute:
        if not (group.is_torus and group.cochar_rank == 1):
            raise InputError("poincare needs the group T(1)")
        results["poincare"] = poincare_bundle_exists(d[0], f)

    hypotheses = {}
    for thm in THEOREMS:
        res = hypothesis_check(f, group, thm)
        hypotheses[thm] = {"satisfied": res.satisfied, "missing": list(res.missing)}

    report = {
        "schema_version": SCHEMA_VERSION,
        "group": {
            "input": cfg.group_text,
            "datum": group_to_json(group),
        },
        "pi1": delta.presentation.group.to_json(),
        "delta": list(delta.coords),
        "lift": list(d),
        "family": f.to_json(),
        "results": results,
        "hypotheses": hypotheses,
        "warnings": warnings,
    }
    return exit_code, report


def render_text(report: dict) -> str:
    """Human-readable projection of the JSON report."""
    lines = []
    g = report["group"]["datum"]
    lines.append(f"group: {g.get('label') or report['group']['input']} "
                 f"(cochar rank {g['cochar_rank']}, factors {g['factor_types']})")
    pi1 = report["pi1"]
    lines.append(f"pi1(G) = {_describe(pi1)}; delta = {report['delta']}, "
                 f"lift = {report['lift']}")
    fam = report["family"]
    lines.append(f"family: {fam.get('label') or 'custom'} (genus {fam['genus']}, "
                 f"delta(C/S) = {fam['delta']})")
    res = report["results"]
    if "forms" in res:
        fl = res["forms"]
        lines.append("form lattices (ranks): "
                     f"invariant {fl['invariant']['rank']}, even {fl['even']['rank']}, "
                     f"conditional {fl['conditional']['rank']}, d-even {fl['d_even']['rank']}")
    if "ns" in res:
        ns = res["ns"]
        lines.append(f"NS(Bun) = {_describe(ns['bun']['group'])}; "
                     f"NS(rigidified) = {_describe(ns['rigidified']['group'])}; "
                     f"NS Bun(P1) = {_describe(ns['bun_p1']['group'])}")
    if "picard" in res:
        p = res["picard"]
        cok = _describe(p["cokernel"]) if p["cokernel"] else "n/a"
        lines.append(f"picard [{p['theorem']}]: cokernel {cok}, "
                     f"image index {p['image_index']}, splitting known: {p['splitting_known']}")
        for note in p["notes"]:
            lines.append(f"  note: {note}")
    if "rigidified" in res:
        p = res["rigidified"]
        lines.append(f"rigidified [{p['theorem']}]: cokernel "
                     f"{_describe(p['cokernel']) if p['cokernel'] else 'n/a'}")
    if "gerbe" in res:
        ge = res["gerbe"]
        wt = ge["coker_wt"]
        wt_text = (_describe(wt) if not wt.get("graded")
                   else f"extension of {_describe(wt['quotient'])} by {_describe(wt['sub'])}")
        lines.append(f"gerbe: coker(ev) = {_describe(ge['ev_cokernel'])}, "
                     f"coker(wt) = {wt_text}")
        if ge["poincare_exists"] is not None:
            lines.append(f"  poincare bundle exists: {ge['poincare_exists']}")
    if "poincare" in res:
        lines.append(f"poincare bundle exists: {res['poincare']}")
    for w in report["warnings"]:
        lines.append(f"warning: {w['computation']}: {w['theorem']} missing: "
                     + "; ".join(w["missing"]))
    return "\n".join(lines)


def _describe(grp: dict) -> str:
    return FGAbelianGroup(**grp).describe()


def emit(report: dict, fmt: str) -> str:
    """The report as text; one holding an integer too long for ``str`` (the
    interpreter's guard against quadratic-time conversion) is an InputError.
    The JSON is always serialized, so both formats refuse the same reports:
    the text shows only part of the report."""
    try:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
        return text if fmt == "json" else render_text(report)
    except ValueError:
        raise InputError("the report holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, too long to print") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bunpic",
        description="Discrete invariants of moduli stacks of principal bundles "
                    "over families of curves, in exact arithmetic.",
        epilog="delta coordinates refer to the canonical generators of pi1(G) "
               "as printed by --compute pi1 (free generators first, then "
               "torsion generators in invariant-factor order). Family presets: "
               + ", ".join(PRESET_NAMES) + ".",
    )
    p.add_argument("--group", help="group spec, e.g. 'GL(3)*T(1)', or @datum.json")
    p.add_argument("--delta", default="", help="comma-separated pi1 coordinates")
    p.add_argument("--family", help="preset:params (e.g. universal:2,1), inline JSON, or @file.json")
    p.add_argument("--lift-d", default=None,
                   help="explicit cocharacter lift of delta (comma-separated); "
                        "defaults to the canonical (genus 0: generic) lift")
    p.add_argument("--compute", default="picard",
                   help="comma list from: " + ", ".join(COMPUTATIONS))
    p.add_argument("--format", default="json", choices=("text", "json"))
    p.add_argument("--batch", help="file with one JSON run config per line")
    return p


def _flag_config(args) -> dict:
    """The run config (batch line) that the single-run flags ask for."""
    return {
        "group": args.group,
        "family": args.family,
        "delta": _comma_ints("--delta", args.delta),
        "compute": [x.strip() for x in args.compute.split(",") if x.strip()],
        "lift_d": _comma_ints("--lift-d", args.lift_d) if args.lift_d else None,
    }


def _error_record(line: int, exc: Exception, fmt: str) -> str:
    message = str(exc)
    if fmt == "json":
        return json.dumps({"error": message, "line": line}, sort_keys=True, separators=(",", ":"))
    return f"error: line {line}: {message}"


def _run_batch(path: str, fmt: str) -> int:
    """Run the non-blank lines of ``path`` in order, printing one report or
    error record per line as it finishes.  Returns 1 if any line was bad,
    otherwise the worst report exit code."""
    worst = 0
    bad = False
    # bytes that are not UTF-8 pass the read as surrogates, and decoding the
    # line again inside the guard makes them that line's error record
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8")
                code, report = run_report(RunConfig.from_json(_parse_json(line)))
                text = emit(report, fmt)
            except INPUT_ERRORS as exc:
                bad = True
                print(_error_record(number, exc, fmt), flush=True)
                continue
            worst = max(worst, code)
            print(text, flush=True)
    return 1 if bad else worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.batch:
            return _run_batch(args.batch, args.format)
        if not args.group or not args.family:
            raise InputError("--group and --family are required (or use --batch)")
        code, report = run_report(RunConfig.from_json(_flag_config(args)))
        print(emit(report, args.format))
        return code
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
