"""bunpic benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 bench/run.py --workload full_large --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload sweep_small --trace 1
    python3 bench/run.py --workload big_coeff --record-golden

Run from anywhere inside a checkout; the benchmark uses the checkout's
``src`` and writes only under ``.bench_out/`` at its root.  It generates the
workload from ``--seed`` and checks every config with bunpic's input
validators, then repeats rounds while the next one would end within
``--seconds``:

* ``--trace 0``: each round is one pass, in turn a sequential in-process
  pass in a fresh interpreter (time of ``run_report`` + ``emit`` per report)
  or a ``python -m bunpic.cli --batch`` subprocess (wall time from spawn to
  exit, peak RSS of that child from ``os.wait4``).  At least one pass of each
  kind.  One setup sample comes first and the time left after the last pass
  goes to more: a fresh interpreter that times ``import bunpic`` plus
  ``RunConfig.from_json`` of every line, at least five per run.
* ``--trace 1``: each round is one fresh interpreter that runs an untraced
  pass, a traced pass, and a traced ``--batch`` pass through the CLI thread
  pool (see ``tracer.py``).

Every report is checked: schema, exit code against warnings, the golden
digest and exit code where ``golden/`` has the config, the prime factor on
``big_coeff``, equal bytes across passes, and batch output equal to the
in-process bytes.  The human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, full_large_space

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"
CHILD_TIMEOUT_S = 120        # a run must end within 180 s even if one child hangs
SETUP_SAMPLES = 5            # setup_s is the median of at least this many

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "report_ms_p50": "ms",
    "peak_rss_mib": "MiB",
}


def _calls(*names):
    return lambda s, b: sum(s["calls"].get(n, 0) for n in names)


def _self(name):
    return lambda s, b: s["self_s"].get(name, 0.0)


def _layer(layer):
    return lambda s, b: s["layer_self_s"][layer]


# name -> (unit, value from the sequential and the batch tracer summaries)
PER_LAYER = {
    "invariant_forms.self_s": ("s", _layer("invariant_forms")),
    "invariant_forms.sym2_action.calls": ("count", _calls("invariant_forms.sym2_action")),
    "invariant_forms.form_lattice.calls": ("count", _calls(
        "invariant_forms.invariant_sym_forms", "invariant_forms.even_invariant_forms",
        "invariant_forms.sc_even_forms", "invariant_forms.conditional_form_lattice",
        "invariant_forms.d_even_forms")),
    "invariant_forms.ns.calls": ("count", _calls(
        "invariant_forms.ns_bun", "invariant_forms.ns_rigidified", "invariant_forms.ns_bun_p1")),
    "root_datum.self_s": ("s", _layer("root_datum")),
    "root_datum.cross_diagram.calls": ("count", _calls("root_datum.cross_diagram")),
    "root_datum.pi1_presentation.calls": ("count", _calls("root_datum.pi1_presentation")),
    "exact_algebra.self_s": ("s", _layer("exact_algebra")),
    "exact_algebra.snf.calls": ("count", _calls("exact_algebra.smith_normal_form")),
    "exact_algebra.snf.self_s": ("s", _self("exact_algebra.smith_normal_form")),
    "exact_algebra.snf.max_dim": ("count", lambda s, b: s["snf_max_dim"]),
    "exact_algebra.hnf.calls": ("count", _calls("exact_algebra.hermite_normal_form")),
    "exact_algebra.hnf.self_s": ("s", _self("exact_algebra.hermite_normal_form")),
    "exact_algebra.kernel_basis.calls": ("count", _calls("exact_algebra.kernel_basis")),
    "exact_algebra.rational_inverse.calls": ("count", _calls("exact_algebra.rational_inverse")),
    "exact_algebra.rational_inverse.self_s": ("s", _self("exact_algebra.rational_inverse")),
    "exact_algebra.matmul.calls": ("count", _calls("exact_algebra.IntMatrix.mul")),
    "exact_algebra.group_from_relations.self_s": ("s", _self("exact_algebra.group_from_relations")),
    "exact_algebra.max_coeff_bits": ("bits", lambda s, b: s["max_coeff_bits"]),
    "cli.self_s": ("s", _layer("cli")),
    "cli.emit.self_s": ("s", _self("cli.emit")),
    "cli.wait_s": ("s", lambda s, b: b["wait_s"].get("cli.run_report", 0.0)),
    "family.self_s": ("s", _layer("family")),
    "family.hypothesis_check.calls": ("count", _calls("family.hypothesis_check")),
    "picard.self_s": ("s", _layer("picard")),
    "picard.report.calls": ("count", _calls(
        "picard.reductive_picard", "picard.torus_picard", "picard.torus_picard_genus0")),
    "gerbe.self_s": ("s", _layer("gerbe")),
    "gerbe.evaluation_cokernel.calls": ("count", _calls("gerbe.evaluation_cokernel")),
}
TRACE_OVERHEAD = "trace.overhead"       # traced / untraced sequential pass, unit "ratio"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, a generator bug)."""


# ---------------------------------------------------------------------------
# statistics


TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    return xs[max(0, math.ceil(round(q * len(xs) / 100.0, 9)) - 1)]


def tail_percentile(n: int):
    """The highest of p90/p99/p99.9 with at least ten of ``n`` samples
    beyond it, or None when even p90 has fewer."""
    best = None
    for q in TAIL_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 9) >= 10:
            best = q
    return best


# ---------------------------------------------------------------------------
# processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(mode: str, path: Path, *extra) -> dict:
    """Run ``bench/worker.py mode`` in a fresh interpreter; return its JSON result."""
    out = OUT / f"worker-{mode}.json"
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), mode, str(path), str(out),
                           *map(str, extra)],
                          cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def batch_pass(path: Path):
    """``python -m bunpic.cli --batch path`` from spawn to exit.  Returns
    (wall seconds, max RSS MiB of that child alone, exit code, stdout lines)."""
    out_path, err_path = OUT / "batch.out", OUT / "batch.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bunpic.cli", "--batch", str(path)],
                                cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    lines = out_path.read_text(encoding="utf-8").splitlines()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, lines


# ---------------------------------------------------------------------------
# correctness


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["reports"]


def _coker_wt_factors(report) -> list:
    try:
        wt = report["results"]["gerbe"]["coker_wt"]
        return wt["sub"]["torsion"] if wt.get("graded") else wt["torsion"]
    except (KeyError, TypeError, AttributeError):
        return []


class Checker:
    """Verdict per workload line from one reference pass, then a failure
    count for every further execution of the same lines."""

    def __init__(self, cases, golden):
        import jsonschema

        schema = json.loads((ROOT / "docs" / "schema.json").read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.cases = cases
        self.golden = golden
        self.reference = None
        self.problems = []          # (line number, message)
        self.golden_checked = 0
        self.attempted = 0
        self.failed = 0

    def _line_problems(self, case, code, line, error):
        if line is None:
            return [f"no report: {error}"]
        report = json.loads(line)
        out = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        warnings = report.get("warnings")
        if code not in (0, 2) or (code == 2) != bool(warnings):
            out.append(f"exit code {code} with warnings {warnings}")
        expected = self.golden.get(sha256(case.line))
        if expected is not None:
            self.golden_checked += 1
            if expected != {"exit": code, "sha256": sha256(line)}:
                out.append(f"differs from golden {expected}")
        if case.prime is not None and case.prime not in _coker_wt_factors(report):
            out.append(f"coker(wt) lacks the invariant factor {case.prime}")
        return out

    def set_reference(self, result) -> None:
        """Judge the first in-process pass; it counts as one execution."""
        errors = iter(result["errors"])
        self.reference = []
        for i, (case, code, line) in enumerate(zip(self.cases, result["codes"], result["lines"])):
            probs = self._line_problems(case, code, line, next(errors) if line is None else "")
            self.reference.append((code, line, not probs))
            self.problems.extend((i + 1, p) for p in probs)
        self.attempted += len(self.cases)
        self.failed += sum(1 for *_, ok in self.reference if not ok)

    def same_as_reference(self, codes, lines, what: str) -> None:
        """Another execution of every line; codes=None when only bytes show."""
        for i, (ref_code, ref_line, ok) in enumerate(self.reference):
            line = lines[i] if i < len(lines) else None
            code = ref_code if codes is None else codes[i]
            same = line == ref_line and code == ref_code
            if not same:
                self.problems.append((i + 1, f"{what}: bytes or exit code differ"))
            self.attempted += 1
            self.failed += not (ok and same)

    def batch_exit(self, code: int) -> None:
        expected = max(c for c, _, _ in self.reference)
        if code != expected:
            self.problems.append((0, f"batch exit {code}, expected {expected}"))
        self.attempted += 1
        self.failed += code != expected


# ---------------------------------------------------------------------------
# the two kinds of run


def _rounds(seconds: float, one_round):
    """Call one_round at least once, then while the next call, taken to last
    as long as the longest so far, still ends within ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    for done in itertools.count():
        if done and time.perf_counter() - start + longest > seconds:
            return
        r0 = time.perf_counter()
        one_round()
        longest = max(longest, time.perf_counter() - r0)


def untraced_run(path, checker, seconds):
    start = time.perf_counter()
    setup_s, setup_took, batches, seqs = [], [], [], []

    def setup_sample():
        t0 = time.perf_counter()
        setup_s.append(run_worker("setup", path)["setup_s"])
        setup_took.append(time.perf_counter() - t0)

    # passes take the run, sequential and batch in turn: the passes of both
    # kinds spread over the whole run, which on a shared machine matters more
    # than how many there are.  A pass starts only if it ends in time, taken
    # to last as long as the median pass of its kind so far (one slow pass
    # must not cost the run a whole pass); the time left goes to setup
    # samples, at least SETUP_SAMPLES of them.
    setup_sample()
    reserve = (SETUP_SAMPLES - 1) * setup_took[0]
    took = {"seq": [], "batch": []}
    while True:
        kind = "seq" if len(seqs) <= len(batches) else "batch"
        if seqs and batches and (time.perf_counter() - start + statistics.median(took[kind])
                                 + reserve > seconds):
            break
        t0 = time.perf_counter()
        if kind == "seq":
            seqs.append(run_worker("seq", path))
        else:
            batches.append(batch_pass(path))
        took[kind].append(time.perf_counter() - t0)
    while (len(setup_s) < SETUP_SAMPLES
           or time.perf_counter() - start + max(setup_took) <= seconds):
        setup_sample()
    checker.set_reference(seqs[0])
    for result in seqs[1:]:
        checker.same_as_reference(result["codes"], result["lines"], "sequential pass")
    for _, _, code, lines in batches:
        checker.same_as_reference(None, lines, "batch output")
        checker.batch_exit(code)
    walls = [b[0] for b in batches]
    report_ms = [ms for result in seqs for ms in result["ms"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "report_ms_p50": statistics.median(report_ms),
        "peak_rss_mib": statistics.median(b[1] for b in batches),
    }
    notes = [f"batch passes: {len(walls)}; sequential passes: {len(seqs)}; "
             f"report samples: {len(report_ms)}; setup samples: {len(setup_s)}"]
    tail = tail_percentile(len(report_ms))
    if tail is None:
        notes.append(f"no tail percentile: {len(report_ms)} report samples < 100")
    else:
        notes.append(f"report_ms_p{tail:g} = {percentile(report_ms, tail):.3f} ms "
                     f"over {len(report_ms)} samples")
    return metrics, notes


def traced_run(path, checker, seconds, workload, seed):
    per_round = []
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"

    def one_round():
        r = run_worker("trace", path, spans)
        if checker.reference is None:
            checker.set_reference(r["untraced"])
        else:
            checker.same_as_reference(r["untraced"]["codes"], r["untraced"]["lines"],
                                      "untraced pass")
        checker.same_as_reference(r["traced"]["codes"], r["traced"]["lines"], "traced pass")
        checker.same_as_reference(None, r["batch_lines"], "traced batch output")
        checker.batch_exit(r["batch_code"])
        seq, batch = r["sequential_summary"], r["batch_summary"]
        values = {name: fn(seq, batch) for name, (_, fn) in PER_LAYER.items()}
        values[TRACE_OVERHEAD] = r["traced_s"] / r["untraced_s"]
        per_round.append(values)

    _rounds(seconds, one_round)
    metrics = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    notes = [f"traced rounds: {len(per_round)}; spans of the last round in {spans}"]
    return metrics, notes


def record_golden(workload: str) -> str:
    """Write golden/<workload>.json from the sources as they are now."""
    cases = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for case in WORKLOADS[workload](seed):
            cases[case.line] = case
    if workload == "full_large":
        for case in full_large_space():
            cases[case.line] = case
    cases = list(cases.values())
    path = _write_workload(cases, f"golden-{workload}")
    result = run_worker("seq", path)
    checker = Checker(cases, {})
    checker.set_reference(result)
    if checker.failed:
        raise BenchError(f"not recording a failing workload: {checker.problems[:5]}")
    reports = {sha256(case.line): {"exit": code, "sha256": sha256(line)}
               for case, code, line in zip(cases, result["codes"], result["lines"])}
    out = GOLDEN / f"{workload}.json"
    out.write_text(json.dumps({"workload": workload, "seeds": [DEFAULT_SEED, HELD_OUT_SEED],
                               "reports": reports}, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return f"recorded {len(reports)} reports in {out}"


def _write_workload(cases, stem: str) -> Path:
    path = OUT / f"{stem}.jsonl"
    path.write_text("".join(case.line + "\n" for case in cases), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=0,
                   help="run only the first N reports of the workload (smoke tests)")
    p.add_argument("--record-golden", action="store_true",
                   help="record golden digests for the default and held-out seeds, then exit")
    args = p.parse_args(argv)

    try:
        for needed in (ROOT / "src" / "bunpic" / "__init__.py", ROOT / "docs" / "schema.json"):
            if not needed.is_file():
                raise BenchError(f"{needed} not found: run inside a bunpic checkout")
        OUT.mkdir(exist_ok=True)
        if args.record_golden:
            print(record_golden(args.workload))
            return 0
        cases = WORKLOADS[args.workload](args.seed)[:args.limit or None]
        path = _write_workload(cases, f"{args.workload}-seed{args.seed}")
        first = run_worker("setup", path, "--validate")   # also compiles the .pyc files
        if first["problems"]:
            raise BenchError("generator produced invalid configs: "
                             + "; ".join(first["problems"][:5]))
        checker = Checker(cases, load_golden(args.workload))
        if args.trace:
            metrics, notes = traced_run(path, checker, args.seconds, args.workload, args.seed)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            units[TRACE_OVERHEAD] = "ratio"
        else:
            metrics, notes = untraced_run(path, checker, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} reports per pass, "
          f"trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  golden digests checked: {checker.golden_checked}")
    for line_no, problem in checker.problems[:20]:
        print(f"  FAILED line {line_no}: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
