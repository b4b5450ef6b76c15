"""One pass of the benchmark in a fresh interpreter.

    python3 bench/worker.py setup    WORKLOAD.jsonl OUT.json [--validate]
    python3 bench/worker.py seq      WORKLOAD.jsonl OUT.json
    python3 bench/worker.py trace    WORKLOAD.jsonl OUT.json SPANS.jsonl

``bunpic`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).  Each mode writes one JSON object to OUT.json:

* ``setup``: seconds to import bunpic and turn every line into a
  ``RunConfig``; with ``--validate``, also the problems bunpic's own input
  validators find in the generated configs (timed before validating).
* ``seq``: one untimed warm-up report on a config of no workload, then every
  line in order through ``run_report`` + ``emit``, timed per report.
* ``trace``: warm-up, an untraced sequential pass, a traced sequential pass,
  and a traced in-process ``--batch`` pass through the CLI thread pool; the
  tracer summaries and every emitted line, so the caller can check that
  tracing changed no byte.
"""

import json
import sys
import time


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln.strip()]


def setup(lines, validate):
    t0 = time.perf_counter()
    import bunpic  # noqa: F401
    from bunpic.cli import RunConfig
    configs = [RunConfig.from_json(json.loads(ln)) for ln in lines]
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "problems": _validate(configs) if validate else []}


def _validate(configs):
    from bunpic.cli import COMPUTATIONS, load_group
    from bunpic.family import validate_family
    from bunpic.root_datum import Pi1Element

    problems = []
    for i, cfg in enumerate(configs, 1):
        try:
            group = load_group(cfg.group_text)
            Pi1Element.from_coords(group, cfg.delta)
        except ValueError as exc:
            problems.append(f"line {i}: {exc}")
            continue
        problems.extend(f"line {i}: {v}" for v in validate_family(cfg.family))
        if set(cfg.compute) - set(COMPUTATIONS):
            problems.append(f"line {i}: unknown computation in {cfg.compute}")
        if "poincare" in cfg.compute and not (group.is_torus and group.cochar_rank == 1):
            problems.append(f"line {i}: poincare needs T(1)")
    return problems


def _run_all(configs, before_each=None):
    """Every config through run_report + emit; a raised exception is that
    report's failure (exit code 1, no line) and the pass goes on."""
    import traceback

    from bunpic.cli import emit, run_report

    out = {"ms": [], "codes": [], "lines": [], "errors": []}
    for i, cfg in enumerate(configs):
        if before_each:
            before_each(i)
        t0 = time.perf_counter()
        try:
            code, report = run_report(cfg)
            line = emit(report, "json")
        except Exception:  # noqa: BLE001  (recorded and counted as a failed report)
            code, line = 1, None
            out["errors"].append(f"line {i + 1}: {traceback.format_exc(limit=3)}")
        out["ms"].append((time.perf_counter() - t0) * 1000.0)
        out["codes"].append(code)
        out["lines"].append(line)
    return out


def _configs_and_warmup(lines):
    from bunpic.cli import RunConfig, emit, run_report
    from workloads import WARMUP

    code, report = run_report(RunConfig.from_json(WARMUP))
    emit(report, "json")
    return [RunConfig.from_json(json.loads(ln)) for ln in lines]


def seq(lines):
    return _run_all(_configs_and_warmup(lines))


def trace(path, lines, spans_path):
    import contextlib
    import io

    from bunpic import cli
    from tracer import Tracer

    configs = _configs_and_warmup(lines)
    t0 = time.perf_counter()
    untraced = _run_all(configs)
    untraced_s = time.perf_counter() - t0

    seq_tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        traced = _run_all(configs, before_each=seq_tracer.report)
        traced_s = time.perf_counter() - t0
    finally:
        seq_tracer.uninstall()

    batch_tracer = Tracer().install()
    buf = io.StringIO()
    try:
        batch_tracer.report("batch")
        with contextlib.redirect_stdout(buf):
            batch_code = cli.main(["--batch", path])
    finally:
        batch_tracer.uninstall()

    with open(spans_path, "w", encoding="utf-8") as fh:
        seq_tracer.write(fh, "sequential")
        batch_tracer.write(fh, "batch")
    return {
        "untraced": untraced, "traced": traced,
        "batch_lines": buf.getvalue().splitlines(), "batch_code": batch_code,
        "untraced_s": untraced_s, "traced_s": traced_s,
        "sequential_summary": seq_tracer.summary(), "batch_summary": batch_tracer.summary(),
    }


def main(argv):
    mode, path, out_path = argv[:3]
    lines = _read_lines(path)
    if mode == "setup":
        result = setup(lines, "--validate" in argv[3:])
    elif mode == "seq":
        result = seq(lines)
    elif mode == "trace":
        result = trace(path, lines, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
