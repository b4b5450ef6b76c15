import collections
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bunpic.cli import COMPUTATIONS, RunConfig, emit, main, parse_family, run_report
from test_invariant_forms import count_form_work

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "schema.json").read_text())


def run(cfg_kwargs):
    cfg = RunConfig(**cfg_kwargs)
    code, report = run_report(cfg)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_e8_picard_cokernel_is_z():
    code, report = run(dict(
        group_text="E8", delta=(), family=parse_family("universal:2,1"),
        compute=("picard",),
    ))
    assert code == 0
    assert report["results"]["picard"]["cokernel"] == {"free_rank": 1, "torsion": []}


def test_gl2_all_computations():
    code, report = run(dict(
        group_text="GL(2)", delta=(1,), family=parse_family("universal:3,1"),
        compute=("pi1", "forms", "ns", "picard", "rigidified", "gerbe"),
    ))
    assert code == 0
    assert report["results"]["pi1"] == {"free_rank": 1, "torsion": []}
    assert report["results"]["forms"]["conditional"]["rank"] == 1


def test_ev_cokernel_table_group_via_raw_datum(tmp_path):
    # the full-center cover of SL(4) realizes the golden-table column for A3
    from bunpic.root_datum import build_group, group_to_json, with_central_torus

    glued, gens = with_central_torus(build_group("SL(4)"))
    datum = tmp_path / "a3_cover.json"
    datum.write_text(json.dumps(group_to_json(glued)))
    code, report = run(dict(
        group_text="@" + str(datum), delta=(2,), family=parse_family("universal:2,1"),
        compute=("gerbe",),
    ))
    assert code == 0
    assert report["results"]["gerbe"]["ev_cokernel"] == {"free_rank": 0, "torsion": [2]}


def test_poincare_via_cli():
    code, report = run(dict(
        group_text="T(1)", delta=(2,), family=parse_family("hyperelliptic:3"),
        compute=("poincare",),
    ))
    assert code == 0
    assert report["results"]["poincare"] is False


def test_hypothesis_failure_exit_code_2():
    code, report = run(dict(
        group_text="PGL(2)", delta=(1,), family=parse_family("fixed_curve:2"),
        compute=("picard", "pi1"),
    ))
    assert code == 2
    assert report["results"]["pi1"] == {"free_rank": 0, "torsion": [2]}
    assert "picard" not in report["results"]
    assert report["warnings"][0]["theorem"] == "ThmB"


def test_determinism_byte_identical():
    kw = dict(group_text="GL(3)*T(1)", delta=(2, 0), family=parse_family("universal:2,0"),
              compute=("pi1", "forms", "ns", "picard", "gerbe"))
    _, r1 = run(kw)
    _, r2 = run(kw)
    assert emit(r1, "json") == emit(r2, "json")


def test_text_mode_projection():
    _, report = run(dict(
        group_text="SL(2)", delta=(), family=parse_family("universal:2,1"),
        compute=("picard", "gerbe"),
    ))
    text = emit(report, "text")
    assert "pi1(G)" in text and "picard" in text


def test_cli_main_json(capsys):
    code = main([
        "--group", "E8", "--family", "universal:2,1", "--compute", "picard",
        "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)


def test_cli_main_input_errors(tmp_path, capsys):
    assert main(["--group", "SL(1)", "--family", "universal:2,1"]) == 1
    assert main(["--group", "SL(2)", "--family", "nope:1"]) == 1
    assert main(["--group", "SL(2)", "--family", "universal:2,1",
                 "--delta", "1,2"]) == 1
    assert main(["--group", "SL(2)", "--family", "universal:2,1",
                 "--compute", "todo"]) == 1
    capsys.readouterr()
    assert main(["--group", "T(21)", "--family", "universal:2,1"]) == 1
    assert "MAX_COCHAR_RANK = 20" in capsys.readouterr().err
    # malformed JSON inputs give one error line, never a traceback
    assert main(["--group", "SL(2)", "--family", '{"genus": 2}']) == 1
    assert capsys.readouterr().err == "error: missing key 'delta'\n"
    assert main(["--group", "SL(2)", "--family", '{"genus": null, "delta": 1}']) == 1
    assert capsys.readouterr().err.startswith("error: ")
    datum = {"cochar_rank": None, "simple_coroots": [], "simple_roots": [], "factor_types": []}
    assert main(["--group", json.dumps(datum), "--family", "universal:2,1"]) == 1
    assert capsys.readouterr().err.startswith("error: group: ")
    datum["cochar_rank"] = -1
    assert main(["--group", json.dumps(datum), "--family", "universal:2,1"]) == 1
    assert capsys.readouterr().err == "error: group: cocharacter rank -1 is negative\n"
    # JSON nested too deeply for the parser, in a file or inline
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' * 50_000 + "1" + "}" * 50_000)
    for flags in (["--group", "SL(2)", "--family", f"@{deep}"],
                  ["--group", f"@{deep}", "--family", "universal:2,1"],
                  ["--group", "SL(2)", "--family", '{"a": ' + "[" * 5000]):
        assert main(flags) == 1
        assert capsys.readouterr().err.endswith("JSON nested too deeply\n")
    # JSON values of the wrong type, and unknown keys, are errors naming the
    # key: none is coerced into a run
    for group, family, key in MALFORMED_INPUTS:
        group = group if isinstance(group, str) else json.dumps(group)
        assert main(["--group", group, "--family", json.dumps(family)]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
    # a list item that is not an integer names its flag
    for flag, value in (("--delta", "x"), ("--delta", "1.5"), ("--lift-d", "2.5")):
        assert main(["--group", "T(1)", "--delta", "2", "--family", "universal:2,1",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err


SL2_DATUM = {"cochar_rank": 1, "simple_coroots": [[1]], "simple_roots": [[2]],
             "factor_types": ["A1"]}
FAMILY_G2 = {"genus": 2, "delta": 1, "rpic_surjective": True}

# (group, family, the key the error must name): inputs that a reader which
# coerced values, or ignored unknown keys, turned into a valid run
MALFORMED_INPUTS = [
    ({**SL2_DATUM, "simple_coroots": [[1.9]]}, FAMILY_G2, "simple_coroots"),
    ({**SL2_DATUM, "simple_coroots": [[True]]}, FAMILY_G2, "simple_coroots"),
    ({**SL2_DATUM, "cochar_rank": "1"}, FAMILY_G2, "cochar_rank"),
    ({**SL2_DATUM, "cochar_rank": 1.9}, FAMILY_G2, "cochar_rank"),
    ({**SL2_DATUM, "label": 5}, FAMILY_G2, "label"),
    ({**SL2_DATUM, "lable": "SL(2)"}, FAMILY_G2, "lable"),
    ("SL(2)", {**FAMILY_G2, "has_section": "false"}, "has_section"),
    ("SL(2)", {**FAMILY_G2, "genus": 2.7}, "genus"),
    ("SL(2)", {**FAMILY_G2, "genus": True}, "genus"),
    ("SL(2)", {**FAMILY_G2, "label": None}, "label"),
    ("SL(2)", {**FAMILY_G2, "genu": 2}, "genu"),
]


def test_cli_lift_d_flag(capsys):
    code = main([
        "--group", "T(1)", "--delta", "2", "--lift-d", "2",
        "--family", "hyperelliptic:3", "--compute", "poincare",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["results"]["poincare"] is False


def test_cli_rejects_wrong_lift(capsys):
    for lift in ("3", "1,2"):      # another class; the wrong number of coordinates
        code = main([
            "--group", "T(1)", "--delta", "2", "--lift-d", lift,
            "--family", "hyperelliptic:3", "--compute", "poincare",
        ])
        assert code == 1, lift


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "runs.jsonl"
    lines = [
        {"group": "E8", "delta": [], "family": "universal:2,1", "compute": ["picard"]},
        {"group": "GL(2)", "delta": [1], "family": "genus0_nontrivial",
         "compute": ["picard"]},
        {"group": "T(1)", "delta": [2], "family": "hyperelliptic:3",
         "compute": ["poincare"]},
    ]
    batch.write_text("\n".join(json.dumps(l) for l in lines))
    code = main(["--batch", str(batch), "--format", "json"])
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out_lines) == 3
    reports = [json.loads(l) for l in out_lines]
    for rep in reports:
        jsonschema.validate(rep, SCHEMA)
    assert reports[0]["group"]["input"] == "E8"
    assert reports[1]["results"]["picard"]["image_index"] == 2
    assert reports[2]["results"]["poincare"] is False


def test_batch_bad_lines_give_one_error_record_each(tmp_path, capsys):
    good = [
        {"group": "GL(2)", "delta": [1], "family": "genus0_nontrivial", "compute": ["picard"]},
        {"group": "T(1)", "delta": [2], "family": "hyperelliptic:3", "compute": ["poincare"]},
    ]
    lines = [
        json.dumps(good[0]),
        json.dumps({"group": "SL(2)", "delta": []}),                          # no "family"
        json.dumps({"group": "SL(2)", "delta": [1, 2], "family": "universal:2,1"}),
        "{not json",
        json.dumps({"group": "T(21)", "delta": [0] * 21, "family": "universal:2,1"}),
        json.dumps({"group": 5, "delta": [], "family": "universal:2,1"}),
        json.dumps({"group": "T(1)", "delta": [1.7], "family": "universal:2,1"}),
    ]
    # what each bad line's error must contain ("" for any message)
    keys = ["family", "", "", "MAX_COCHAR_RANK", "group", "delta"]
    for group, family, key in MALFORMED_INPUTS:
        group = group if isinstance(group, str) else json.dumps(group)
        lines.append(json.dumps({"group": group, "family": family}))
        keys.append(key)
    for line, key in (
        ({"group": "T(1)", "delta": [2], "family": "universal:2,1", "compute": "pi1"},
         "compute"),
        ({"group": "T(1)", "delta": [2], "family": "universal:2,1", "comptue": ["pi1"]},
         "comptue"),
        ({"group": "T(1)", "delta": [2], "family": "universal:2,1", "format": "text"},
         "format"),
        ({"group": "T(1)", "delta": [2], "family": "universal:2,1", "lift_d": [2.0]},
         "lift_d"),
        ([1], "run config"),
    ):
        lines.append(json.dumps(line))
        keys.append(key)
    # too deep for the JSON parser: an error record, and the next line still runs
    lines.append("[" * 100_000)
    keys.append("JSON nested too deeply")
    lines.append(json.dumps(good[1]))
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join(lines) + "\n")

    code = main(["--batch", str(batch), "--format", "json"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == len(lines)
    for i, obj in ((0, good[0]), (len(lines) - 1, good[1])):
        _, report = run_report(RunConfig.from_json(obj))
        assert out[i] == emit(report, "json")
    bad = range(1, len(lines) - 1)
    for i, key in zip(bad, keys, strict=True):
        record = json.loads(out[i])
        assert sorted(record) == ["error", "line"] and record["line"] == i + 1
        assert out[i] == json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert key in record["error"], (key, record)
    assert json.loads(out[5])["error"] == "group must be a string, not 5"
    assert json.loads(out[6])["error"] == "delta must be a list of integers, not [1.7]"

    assert main(["--batch", str(batch), "--format", "text"]) == 1
    errors = [l for l in capsys.readouterr().out.splitlines() if l.startswith("error: ")]
    assert [e.split(": ")[1] for e in errors] == [f"line {i + 1}" for i in bad]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_line_that_is_not_utf8_is_one_error_record(tmp_path, capsys, fmt):
    # the byte 0xff on line 2 is that line's error record; lines 1 and 3 still
    # run, and the CR LF and CR line ends split lines as before
    good = [
        {"group": "GL(2)", "delta": [1], "family": "genus0_nontrivial", "compute": ["picard"]},
        {"group": "T(1)", "delta": [2], "family": "hyperelliptic:3", "compute": ["poincare"]},
    ]
    bad = b'{"group": "SL(2)", "family": "universal:2,1", "compute": ["\xff"]}'
    batch = tmp_path / "runs.jsonl"
    batch.write_bytes(json.dumps(good[0]).encode() + b"\r\n" + bad + b"\r" + json.dumps(good[1]).encode())
    assert main(["--batch", str(batch), "--format", fmt]) == 1
    at = bad.index(b"\xff")
    message = f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    error = (json.dumps({"error": message, "line": 2}, sort_keys=True, separators=(",", ":"))
             if fmt == "json" else f"error: line 2: {message}")
    reports = [emit(run_report(RunConfig.from_json(obj))[1], fmt) for obj in good]
    assert capsys.readouterr().out == "\n".join([reports[0], error, reports[1]]) + "\n"


def test_batch_values_nested_near_the_recursion_limit(tmp_path, capsys):
    # depths that the parser still reads but an error message cannot print
    # back: every line is one error record, never a traceback
    limit = sys.getrecursionlimit()
    lines = []
    for depth in range(limit - 150, limit + 1):
        nested = "[" * depth + "]" * depth
        lines.append(nested)
        lines.append('{"group": "SL(2)", "family": {"genus": ' + nested + ', "delta": 1}}')
    batch = tmp_path / "deep.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    assert main(["--batch", str(batch)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["line"] for r in records] == list(range(1, len(lines) + 1))
    messages = {r["error"] for r in records}
    assert "JSON nested too deeply" in messages
    assert all(m.startswith(("JSON nested", "run config must be", "genus must be"))
               for m in messages), messages


def test_a_report_too_long_to_print_is_one_error_record(tmp_path, capsys):
    # reports holding an integer past the interpreter's int -> str limit: the
    # certificate's hom_order = delta^20, and the genus of 20 000 quadrics
    cause = (f"the report holds an integer of more than {sys.get_int_max_str_digits()} "
             "digits, too long to print")
    family = {"genus": 10**300 // 2 + 1, "delta": 10**300, "end_jacobian_trivial": True,
              "rpic_surjective": True}
    quadrics = "complete_intersection:" + ",".join(["2"] * 20_000)
    good = {"group": "T(1)", "delta": [2], "family": "hyperelliptic:3", "compute": ["poincare"]}
    lines = [{"group": "T(20)", "delta": [0] * 20, "family": family, "compute": ["gerbe"]}, good,
             {"group": "SL(2)", "family": quadrics}, good]
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    _, report = run_report(RunConfig.from_json(good))
    # both formats refuse the same lines, though the text leaves the
    # certificate out
    errors = {"json": [json.dumps({"error": cause, "line": i}, sort_keys=True,
                                  separators=(",", ":")) for i in (1, 3)],
              "text": [f"error: line {i}: {cause}" for i in (1, 3)]}
    for fmt, (first, third) in errors.items():
        assert main(["--batch", str(batch), "--format", fmt]) == 1
        out = capsys.readouterr().out
        assert out == "".join(f"{text}\n" for text in [first, emit(report, fmt), third,
                                                        emit(report, fmt)])
        assert main(["--group", "SL(2)", "--family", quadrics, "--format", fmt]) == 1
        assert capsys.readouterr() == ("", f"error: {cause}\n")


def test_error_records_echo_a_bounded_part_of_the_input(tmp_path, capsys):
    from bunpic.root_datum import echo

    assert echo("x" * 200) == "x" * 200
    assert echo("x" * 1000) == "x" * 200 + "... (800 more characters cut)"
    lines = [
        {"group": "SL(2)", "family": "universal:2,1", "delta": [0.5] * 100_000},
        {"group": "SL(2)", "family": "universal:2,1", "k" * 10**6: 1},
        {"group": "Q" * 10**6, "family": "universal:2,1"},
    ]
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    assert main(["--batch", str(batch)]) == 1
    out = capsys.readouterr().out.splitlines()
    starts = ("delta must be a list of integers, not [0.5, ", "unknown key 'kkk",
              "group: unknown group name 'QQQ")
    assert len(out) == len(lines)
    for i, (line, start) in enumerate(zip(out, starts, strict=True)):
        record = json.loads(line)
        assert record["line"] == i + 1 and record["error"].startswith(start), record
        assert "more characters cut" in record["error"] and len(line.encode()) < 1024


# an integer past the interpreter's int -> str limit, on each surface of
# outside input: (id, single-run flags, batch line, start of the message)
OVERLONG = "9" * (sys.get_int_max_str_digits() + 700)
TOO_LONG = f"an integer of more than {sys.get_int_max_str_digits()} digits"
RANK_TOO_LONG = (f"a rank of more than {sys.get_int_max_str_digits()} digits exceeds the "
                 "limit MAX_COCHAR_RANK = 20")
OVERLONG_DATUM = json.dumps({**SL2_DATUM, "factor_types": ["A" + OVERLONG]})
OVERLONG_INPUTS = [
    ("group rank", ["--group", f"SL(2)*T({OVERLONG})", "--family", "universal:2,1"],
     json.dumps({"group": f"SL(2)*T({OVERLONG})", "family": "universal:2,1"}),
     f"group: {RANK_TOO_LONG} (at position 8)"),
    ("factor type", ["--group", OVERLONG_DATUM, "--family", "universal:2,1"],
     json.dumps({"group": OVERLONG_DATUM, "family": "universal:2,1"}),
     f"group: {RANK_TOO_LONG}"),
    ("JSON number", ["--group", "SL(2)", "--family", '{"genus": %s, "delta": 1}' % OVERLONG],
     '{"group": "SL(2)", "family": "universal:2,1", "delta": [%s]}' % OVERLONG,
     f"JSON holds {TOO_LONG}"),
    ("delta", ["--group", "T(1)", "--delta", f"1,-{OVERLONG}", "--family", "universal:2,1"],
     '{"group": "T(1)", "family": "universal:2,1", "delta": [-%s]}' % OVERLONG,
     TOO_LONG),
    ("lift", ["--group", "T(1)", "--delta", "1", "--lift-d", f" +{OVERLONG}",
              "--family", "universal:2,1"],
     '{"group": "T(1)", "family": "universal:2,1", "delta": [1], "lift_d": [%s]}' % OVERLONG,
     TOO_LONG),
    ("preset parameter", ["--group", "T(1)", "--family", f"universal:{OVERLONG},1"],
     json.dumps({"group": "T(1)", "family": f"universal:{OVERLONG},1"}),
     f"universal parameters holds {TOO_LONG}"),
]


@pytest.mark.parametrize("flags,line,message",
                         [pytest.param(*case[1:], id=case[0]) for case in OVERLONG_INPUTS])
def test_an_integer_too_long_to_read_is_one_short_error(tmp_path, capsys, flags, line, message):
    # the single run exits 1 with one short error line naming the limit, and
    # in a batch the line is one error record while the others still run
    assert main(flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err and len(err.encode()) < 1024, err[:300]
    good = {"group": "T(1)", "delta": [2], "family": "hyperelliptic:3", "compute": ["poincare"]}
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join([json.dumps(good), line, json.dumps(good)]) + "\n")
    assert main(["--batch", str(batch)]) == 1
    first, record, last = capsys.readouterr().out.splitlines()
    assert first == last == emit(run_report(RunConfig.from_json(good))[1], "json")
    assert len(record.encode()) < 1024
    record = json.loads(record)
    assert record["line"] == 2 and message in record["error"], record


# integers that int() reads but the grammar of outside text (optional
# surrounding whitespace, an optional sign, ASCII digits) does not: "1_0",
# which was 10, and an Arabic-Indic three, which was 3.  (id, single-run
# flags, batch line or None where JSON cannot write it, message)
ARABIC_3 = "\u0663"
NOT_ASCII_INPUTS = [
    ("group rank", ["--group", f"T({ARABIC_3})", "--family", "universal:2,1"],
     json.dumps({"group": f"T({ARABIC_3})", "family": "universal:2,1"}),
     "group: expected an integer rank (at position 2)"),
    ("factor type", ["--group", json.dumps({**SL2_DATUM, "factor_types": ["A" + ARABIC_3]}),
                     "--family", "universal:2,1"],
     json.dumps({"group": json.dumps({**SL2_DATUM, "factor_types": ["A" + ARABIC_3]}),
                 "family": "universal:2,1"}),
     "cannot parse simple type 'A\u0663'"),
    ("delta", ["--group", "T(1)", "--delta", "1_0", "--family", "hyperelliptic:3"], None,
     "--delta must be integers, not '1_0'"),
    ("lift", ["--group", "T(1)", "--delta", "1", "--lift-d", ARABIC_3,
              "--family", "hyperelliptic:3"], None,
     "--lift-d must be integers, not '\u0663'"),
    ("preset parameter", ["--group", "T(1)", "--family", "hyperelliptic:1_0"],
     json.dumps({"group": "T(1)", "family": "hyperelliptic:1_0"}),
     "hyperelliptic parameters must be integers, not '1_0'"),
]


@pytest.mark.parametrize("flags,line,message",
                         [pytest.param(*case[1:], id=case[0]) for case in NOT_ASCII_INPUTS])
def test_an_integer_outside_the_ascii_grammar_is_one_short_error(tmp_path, capsys, flags, line,
                                                                  message):
    # each used to run as the integer int() read; now the single run exits 1
    # with one error line, and in a batch the line is one error record while
    # the others still run
    assert main(flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err, err
    if line is None:
        return
    good = {"group": "T(1)", "delta": [2], "family": "hyperelliptic:3", "compute": ["poincare"]}
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join([json.dumps(good), line, json.dumps(good)]) + "\n",
                     encoding="utf-8")
    assert main(["--batch", str(batch)]) == 1
    first, record, last = capsys.readouterr().out.splitlines()
    assert first == last == emit(run_report(RunConfig.from_json(good))[1], "json")
    record = json.loads(record)
    assert record["line"] == 2 and message in record["error"], record


# valid batch lines on groups of rank <= 4 that the fuzz test below mutates
FUZZ_LINES = [
    {"group": "GL(2)", "delta": [1], "family": "genus0_nontrivial", "compute": ["picard"]},
    {"group": "T(2)", "delta": [1, 3], "family": FAMILY_G2, "compute": ["ns", "gerbe"],
     "lift_d": [1, 3]},
    {"group": "T(1)", "delta": [3], "family": "hyperelliptic:3", "compute": ["picard"]},
    {"group": "SL(2)*T(1)", "delta": [2], "family": "universal:3,2",
     "compute": ["pi1", "picard", "rigidified"]},
    {"group": json.dumps(SL2_DATUM), "delta": [], "family": FAMILY_G2, "compute": ["forms"]},
    {"group": "PGL(2)*GL(2)", "delta": [1, 1], "family": {"genus": 3, "delta": 2},
     "compute": ["gerbe"]},
]
JUNK = st.sampled_from([None, True, 2.5, -1, "x", "", [], {}, [[1]], {"genus": 2}])
HUGE = st.integers(-10**40, 10**40)
LINE_BUDGET_S = 5.0


@st.composite
def fuzzed_line(draw):
    """A line of FUZZ_LINES with a few mutations, as text."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(FUZZ_LINES))))
    datum = json.loads(cfg["group"]) if cfg["group"].startswith("{") else None
    family = cfg["family"]
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["swap", "drop", "add", "nest", "huge", "huge", "too deep",
                                    "too long", "not ascii"]))
        if how == "too deep":
            return "[" * 100_000
        if how == "not ascii":
            token = draw(st.sampled_from(["1_0", ARABIC_3]))
            if draw(st.booleans()):
                cfg["group"], datum = f"T({token})", None
            else:
                family = f"universal:{token},1"
            continue
        if how == "too long":
            where = draw(st.sampled_from(["delta", "lift_d", "group rank"]))
            if where == "group rank":
                cfg["group"], datum = f"T({OVERLONG})", None
            else:
                cfg[where] = ["OVERLONG"]       # written as a bare token below
            continue
        if how == "huge":
            where = draw(st.sampled_from(["delta", "lift_d", "genus", "family delta",
                                          "cochar_rank"]))
            if where in ("delta", "lift_d"):
                # as many entries as before, so that a line on a torus stays valid
                size = len(cfg[where]) if isinstance(cfg.get(where), list) else 2
                cfg[where] = draw(st.lists(HUGE, min_size=size, max_size=size))
            elif where == "cochar_rank":
                datum = {**(datum or SL2_DATUM), "cochar_rank": draw(HUGE)}
            else:
                family = family if isinstance(family, dict) else {"genus": 3, "delta": 2}
                family[where.split()[-1]] = draw(HUGE)
            continue
        options = [d for d in (cfg, datum, family) if isinstance(d, dict) and d]
        target = draw(st.sampled_from(options))
        key = draw(st.sampled_from(sorted(target)))
        if how == "swap":
            target[key] = draw(JUNK)
        elif how == "drop":
            del target[key]
        elif how == "add":
            target[draw(st.sampled_from(["extra", "Genus", "lift"]))] = draw(JUNK)
        else:
            depth = draw(st.integers(1, 60))
            target[key] = json.loads("[" * depth + json.dumps(target[key]) + "]" * depth)
    if "family" in cfg:
        cfg["family"] = family
    if datum is not None and "group" in cfg:
        cfg["group"] = json.dumps(datum)
    # an integer past the int -> str limit, which json.dumps cannot write
    return json.dumps(cfg).replace('"OVERLONG"', OVERLONG)


class Stamped(io.StringIO):
    """Text output that keeps the time at which each line ended."""

    def __init__(self):
        super().__init__()
        self.ends = []

    def write(self, text):
        if text.endswith("\n"):
            self.ends.append(time.perf_counter())
        return super().write(text)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(fuzzed_line(), min_size=1, max_size=3))
def test_fuzzed_batch_lines_give_one_record_each_in_order(tmp_path, lines):
    batch = tmp_path / "fuzz.jsonl"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = Stamped(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--batch", str(batch)])
    assert err.getvalue() == ""
    records = [json.loads(text) for text in out.getvalue().splitlines()]
    assert len(records) == len(out.ends) == len(lines)
    assert max(b - a for a, b in zip([start] + out.ends, out.ends)) < LINE_BUDGET_S
    bad = False
    for number, (line, rec) in enumerate(zip(lines, records), 1):
        if "error" in rec:
            assert sorted(rec) == ["error", "line"] and rec["line"] == number
            bad = True
        else:
            assert rec["group"]["input"] == json.loads(line)["group"]
    assert code in (0, 1, 2) and (code == 1) == bad


def flag_values(flag, valid, junk=()):
    """``[flag, value]``, mostly with a valid value (``None``: no flag), else
    with junk or random text, or no flag at all."""
    text = object()
    value = st.sampled_from(valid * 3 + list(junk) + [None, text]).flatmap(
        lambda v: st.text(max_size=6) if v is text else st.just(v))
    return value.map(lambda v: [] if v is None else [flag, v])


# small ranks only, so one example runs in milliseconds; T(10^9) must be
# refused by the rank check before any matrix is built
FLAG_ARGV = st.tuples(
    flag_values("--group", ["SL(2)", "GL(2)", "PGL(2)*T(1)", "T(1)", "T(2)", json.dumps(SL2_DATUM)],
                ["T(1000000000)", "GL(0)", "SL(2", "Q(2)", "{", '{"cochar_rank": 1}', "@",
                 f"T({OVERLONG})", OVERLONG_DATUM, "T(1_0)", f"T({ARABIC_3})"]),
    flag_values("--delta", [None, "", "0", "1", "1,2", "1,1", "-3"],
                ["x", "1,,y", "9" * 50, "0.5", OVERLONG, "1_0", ARABIC_3]),
    flag_values("--lift-d", [None, None, None, "0", "1", "2,1", "1,0,0"],
                ["a", "9" * 50, "1.5", OVERLONG, "1_0", ARABIC_3]),
    flag_values("--family", ["universal:2,1", "genus0_trivial", "genus0_nontrivial",
                             "hyperelliptic:3", '{"genus": 2, "delta": 1}'],
                ["universal:2", "nope:1", '{"genus": null, "delta": 1}', "{", "@", "universal:x",
                 f"universal:{OVERLONG}", '{"genus": %s, "delta": 1}' % OVERLONG,
                 "universal:1_0,1", f"hyperelliptic:{ARABIC_3}"]),
    st.one_of(st.just([]), st.lists(st.sampled_from(list(COMPUTATIONS) + ["bogus", ""]),
                                    max_size=4).map(lambda c: ["--compute", ",".join(c)])),
    flag_values("--format", [None, "json", "text"], ["xml"]),
)


@settings(max_examples=150, deadline=None)
@given(FLAG_ARGV)
def test_fuzzed_flags_give_a_report_or_one_error(argv):
    argv = [a for flag in argv for a in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse refuses a flag with exit code 2
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert len([l for l in err.getvalue().splitlines() if l.startswith("error:")]) == 1
        assert len(err.getvalue().encode()) < 1024


def test_batch_without_bad_lines_returns_worst_report_code(tmp_path, capsys):
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join(json.dumps(l) for l in [
        {"group": "E8", "delta": [], "family": "universal:2,1", "compute": ["picard"]},
        {"group": "PGL(2)", "delta": [1], "family": "fixed_curve:2", "compute": ["picard"]},
    ]))
    assert main(["--batch", str(batch)]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_batch_output_does_not_depend_on_hash_seed(tmp_path):
    every = ["pi1", "forms", "ns", "picard", "rigidified", "gerbe"]
    lines = [
        {"group": "T(1)", "delta": [3], "family": "universal:2,1", "compute": every + ["poincare"]},
        {"group": "GL(2)*T(1)", "delta": [1, 2], "family": "universal:3,2", "compute": every},
        {"group": "PSO(8)", "delta": [1, 1], "family": "universal:2,1", "compute": every},
        {"group": "GL(3)", "delta": [1], "family": "genus0_nontrivial", "compute": every},
    ]
    batch = tmp_path / "runs.jsonl"
    batch.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "bunpic.cli", "--batch", str(batch)],
                              capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == len(lines)
    assert outputs[0] == outputs[1]


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bunpic.cli", "--group", "PGL(4)", "--delta", "2",
         "--family", "universal:2,1", "--compute", "pi1,forms", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pi1"] == {"free_rank": 0, "torsion": [4]}


def test_family_inline_json():
    fam = parse_family('{"genus": 2, "delta": 2, "end_jacobian_trivial": true, '
                       '"rpic_surjective": true, "rpic0_torsion_free": true}')
    assert fam.genus == 2 and fam.delta == 2


# SHA-256 of `bunpic --format json` stdout and the exit code for all six
# computations, pinned from the implementation that evaluated forms through
# their Gram matrices: a change to how forms are stored or evaluated must
# leave every report byte unchanged.
PINNED_REPORTS = [
    ("E8", "", "universal:2,1", 0,
     "9b9d436ecd0da4c73c51aa3201d366f7420c7fcd8e23b5d20b14ba0813c5a806"),
    ("SO(10)*PGL(4)", "1,1", "universal:3,1", 0,
     "0655df3b94c12e7a1a464b3c8400561ff2f1bb8eebb45b625b9782f19fbac590"),
    ("GL(2)*SL(2)*T(1)", "1,1", "universal:2,0", 0,
     "b51a5687e3d7e5fe33aaffc71c531ae273c2027a40cc82eda33413b6cba5262f"),
    ("GL(4)*PGL(2)", "3,1", "universal:3,0", 0,
     "d5c4292f40fde474f6a1c32bee4f25ad8d7bd408a60cbda2353b0bc4661f093b"),
    ("GL(3)*T(2)", "1,2,1", "genus0_nontrivial", 0,
     "55fbc653647a222e3c33b4f5e742c49cef3497e02848c98af188712247af1b1c"),
    ("PGL(4)*T(1)", "1,2", "genus0_trivial", 0,
     "a0420c9eba7845eedd0fd3bafbfa8d3baf7f9462c7aae1547c8bdca5126f0a89"),
    ("T(3)", "1,2,3", "universal:2,1", 0,
     "4f9e956907ecbe0f0936a18270fce17567616e33203df7882f1387099c13e292"),
    ("T(3)", "1,2,3", "universal:3,0", 0,
     "44f7cbd7efd7dddfeb6406b8bbb9398bbacd006b68e8eed2d205eec07eb16757"),
    ("PGL(2)*T(1)", "1,1", "hyperelliptic:3", 2,
     "5b5cddeff9df9af38a73eebdc45c11a10c840e1e228e349f6094ad6cc4d52523"),
    # tori, where every semisimple-side shape is empty; pinned from the
    # implementation that gave empty shapes branches of their own
    ("T(2)", "1,2", "genus0_nontrivial", 0,
     "ccf1401c0284672213f1480a759427e5fa56cf0cddb06c0319383fadd1134ee7"),
    ("GL(1)*T(1)", "1,1", "universal:2,1", 0,
     "55f58896d7f17044890f105e5380715aa84e194eeb8e462a84413b7694736229"),
]


# The same for cocharacter ranks 10-12, above every benchmark group, where the
# normal forms are largest; pinned from the implementation that took every
# integer kernel from the Smith normal form.
PINNED_LARGE_RANK_REPORTS = [
    ("GL(12)", "1", "universal:2,1", 0,
     "f6e06a7dcd8c0942bf75a3bcc86ae0040a860c4cc208ebf5c7726165bed436ae"),
    ("T(10)", "1,2,3,4,5,6,7,8,9,10", "universal:2,1", 0,
     "494fa36de9912f9ea23350992551b6b4daa3c094718e9fa018bba10213d75f7b"),
    ("Sp(18)*T(2)", "1,1", "universal:3,1", 0,
     "bba410d48e6c05b4310a39aea62392b5bf31ddcfdf53aa480e6819468f10d62b"),
    ("PGL(11)*T(1)", "3,1", "universal:2,2", 0,
     "ec197360e7cb47715fe8206a8cfea8e46d278ec7312a7ef242b992657240c4ee"),
    ("SO(21)*T(1)", "1,1", "genus0_nontrivial", 2,
     "4172c84b5a1023cf1434431fe3cf8779d01eed7a21396eef6e243b9dc33fcbf9"),
    ("SL(6)*Sp(6)*T(2)", "1,1", "hyperelliptic:3", 2,
     "aa55bdfa4f550d818cdf1eb81a09f903ae8b4030441bc9f03f1983677509119a"),
]


# The same for cocharacter rank 16, where the Sym^2 coordinate matrices are
# largest and most of their entries are zero; pinned from the implementation
# whose matrix products multiplied every entry.
PINNED_RANK_16_REPORTS = [
    ("T(16)", ",".join(["1"] * 16), "universal:2,1", 0,
     "7a222896208f8d16999a346041c141e9547d3c679c3369bf6a7098a215435bef"),
    ("GL(16)", "1", "universal:2,1", 0,
     "799ff2e798f65ba1d93498308f424e4632004fee76a0051be32047587280bc19"),
]


def full_report_digest(capsys, group, delta, family):
    """Exit code and SHA-256 of the JSON stdout of all six computations."""
    code = main(["--group", group, "--delta", delta, "--family", family,
                 "--compute", "pi1,forms,ns,picard,rigidified,gerbe", "--format", "json"])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("group,delta,family,code,digest", PINNED_REPORTS + PINNED_RANK_16_REPORTS)
def test_reports_match_pinned_digests(capsys, group, delta, family, code, digest):
    assert full_report_digest(capsys, group, delta, family) == (code, digest)


@pytest.mark.parametrize("group,delta,family,code,digest", PINNED_LARGE_RANK_REPORTS)
def test_large_rank_reports_match_pinned_digests(capsys, group, delta, family, code, digest):
    from bunpic.root_datum import build_group

    assert 10 <= build_group(group).cochar_rank <= 12
    assert full_report_digest(capsys, group, delta, family) == (code, digest)


@pytest.mark.parametrize("group,delta,family,code", [
    pinned[:4] for pinned in PINNED_REPORTS + PINNED_LARGE_RANK_REPORTS + PINNED_RANK_16_REPORTS])
def test_report_datum_and_family_read_back(capsys, group, delta, family, code):
    # the readers accept exactly what a report emits: its root datum and
    # family, fed back as inline JSON, give the same report
    every = ["--compute", "pi1,forms,ns,picard,rigidified,gerbe"]
    assert main(["--group", group, "--delta", delta, "--family", family] + every) == code
    first = json.loads(capsys.readouterr().out)
    assert main(["--group", json.dumps(first["group"]["datum"]),
                 "--delta", ",".join(map(str, first["delta"])),
                 "--family", json.dumps(first["family"])] + every) == code
    again = json.loads(capsys.readouterr().out)
    for report in (first, again):
        del report["group"]["input"]
    assert again == first


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("flags,line", [
    (["--group", "GL(2)*T(1)", "--delta", "1,2", "--family", "universal:3,2",
      "--compute", "pi1,picard,gerbe"],
     {"group": "GL(2)*T(1)", "delta": [1, 2], "family": "universal:3,2",
      "compute": ["pi1", "picard", "gerbe"]}),
    (["--group", "T(1)", "--delta", "2", "--lift-d", "2", "--family", "hyperelliptic:3",
      "--compute", "poincare,gerbe"],
     {"group": "T(1)", "delta": [2], "lift_d": [2], "family": "hyperelliptic:3",
      "compute": ["poincare", "gerbe"]}),
    (["--group", "SL(2)", "--family", json.dumps(FAMILY_G2)],
     {"group": "SL(2)", "family": FAMILY_G2}),
])
def test_flags_and_batch_line_print_the_same_bytes(tmp_path, capsys, fmt, flags, line):
    code = main(flags + ["--format", fmt])
    single = capsys.readouterr().out
    batch = tmp_path / "runs.jsonl"
    batch.write_text(json.dumps(line) + "\n")
    assert main(["--batch", str(batch), "--format", fmt]) == code
    assert capsys.readouterr().out == single


def run_full_report(monkeypatch, group, delta, family):
    """A six-computation report; returns the group object it loaded."""
    from bunpic import cli

    load = cli.load_group
    loaded = []
    monkeypatch.setattr(cli, "load_group", lambda text: loaded.append(load(text)) or loaded[-1])
    code, _ = run(dict(
        group_text=group, delta=delta, family=parse_family(family),
        compute=("pi1", "forms", "ns", "picard", "rigidified", "gerbe"),
    ))
    assert code == 0
    [g] = loaded
    return g


def assert_equals_a_fresh_group(g, group):
    """Values kept on a group object leave ==, hash and group_to_json as they are."""
    from bunpic.root_datum import build_group, group_to_json

    fresh = build_group(group)
    assert g == fresh
    assert hash(g) == hash(fresh)
    assert group_to_json(g) == group_to_json(fresh)


@pytest.mark.parametrize("group,delta,cuts", [pytest.param(*case, id=case[0]) for case in [
    # semisimple: the even cut of Lambda(T_G), which the D-even lattice
    # shares, and the conditional lattice's own cut of the sc forms
    ("E8", (), 2), ("E7ad", (1,), 2), ("SO(10)*PGL(4)", (1, 1), 2),
    # the even, D-even and conditional cuts
    ("GL(8)", (1,), 3), ("GL(3)*T(1)", (1, 1), 3), ("T(2)", (1, 2), 3),
]])
def test_report_computes_each_form_lattice_once(monkeypatch, group, delta, cuts):
    # one build of the invariant forms per report, on Lambda(T_G), and one
    # congruence cut per form lattice, the D-even lattice of a semisimple
    # group being its even lattice; the values are kept on the group
    # without changing it
    runs = count_form_work(monkeypatch)
    g = run_full_report(monkeypatch, group, delta, "universal:2,1")
    assert runs == {"_invariant_form_coords": 1, "_cut_coefficients": cuts}
    assert_equals_a_fresh_group(g, group)


# the memoized bodies of the lift-dependent results, by the module that
# defines them
LIFT_MEMOS = (("invariant_forms", "_ns_compatible"), ("invariant_forms", "_ns_bun"),
              ("invariant_forms", "_ns_rigidified"), ("invariant_forms", "_ns_bun_p1"),
              ("invariant_forms", "_sc_evaluation"), ("gerbe", "_gamma_bar"),
              ("gerbe", "_ev_hat_data"))


def count_body_runs(monkeypatch, memos=LIFT_MEMOS):
    """Count the runs of each memoized body: each memo is rebuilt around a
    counting copy of its body, under the same name in every module that holds
    it."""
    from bunpic import gerbe, invariant_forms
    from bunpic.root_datum import once_per_group

    modules = {"invariant_forms": invariant_forms, "gerbe": gerbe}
    runs = collections.Counter()
    for home, name in memos:
        body = getattr(modules[home], name).__wrapped__

        def counted(g, *args, _body=body, _name=name):
            runs[_name] += 1
            return _body(g, *args)

        memo = once_per_group(functools.wraps(body)(counted))
        for module in modules.values():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, memo)
    return runs


@pytest.mark.parametrize("group,delta", [
    ("E8", ()), ("SO(10)*PGL(4)", (1, 1)), ("GL(3)*T(1)", (1, 1)), ("GL(3)", (0,)),
])
def test_positive_genus_report_computes_each_ns_group_once(monkeypatch, group, delta):
    # the ns, picard, rigidified and gerbe computations share one lift, so one
    # compatible lattice for NS(Bun) and NS(rigidified), and one Im(gamma-bar)
    # with its cokernel; NS Bun(P^1) and ev evaluate the sc forms at one
    # generic lift, though the canonical lift of E8's and GL(3)'s delta = 0
    # is not generic
    runs = count_body_runs(monkeypatch)
    g = run_full_report(monkeypatch, group, delta, "universal:2,1")
    assert runs == {"_ns_compatible": 1, "_ns_bun": 1, "_ns_rigidified": 1, "_ns_bun_p1": 1,
                    "_sc_evaluation": 1, "_gamma_bar": 1}
    assert_equals_a_fresh_group(g, group)


@pytest.mark.parametrize("group,delta,family", [
    ("E8", (), "universal:2,1"), ("GL(3)", (1,), "universal:2,1"),
    ("GL(3)*T(1)", (1, 1), "universal:3,2"), ("T(2)", (1, 2), "universal:2,1"),
    ("GL(3)", (1,), "genus0_nontrivial"),
])
def test_ns_rigidified_reads_the_compatible_lattice_of_ns_bun(monkeypatch, group, delta, family):
    # NS(rigidified) is cut from the compatible lattice that NS(Bun) solves:
    # it evaluates no form and solves no preimage of its own
    from bunpic import invariant_forms

    callers = collections.Counter()

    def by_caller(name, fn):
        def counted(*args):
            callers[name, sys._getframe(1).f_code.co_name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(invariant_forms, "preimage_lattice",
                        by_caller("preimage_lattice", invariant_forms.preimage_lattice))
    monkeypatch.setattr(invariant_forms.FormLattice, "values",
                        by_caller("values", invariant_forms.FormLattice.values))
    run_full_report(monkeypatch, group, delta, family)
    assert not [c for c in callers if c[1] == "_ns_rigidified"], callers
    assert callers["preimage_lattice", "_ns_compatible"] == 1
    assert callers["values", "_ns_compatible"] == 1


@pytest.mark.parametrize("group,delta,family", [
    ("E8", (), "universal:2,1"), ("SO(10)*PGL(4)", (1, 1), "universal:2,1"),
    ("GL(3)*T(1)", (1, 1), "universal:2,1"), ("T(2)", (1, 2), "universal:2,1"),
    ("E8", (), "genus0_nontrivial"), ("GL(2)", (1,), "genus0_nontrivial"),
])
def test_report_solves_the_cartan_matrix_once(monkeypatch, group, delta, family):
    # the invariant forms and every simple-coroot coordinate read one
    # projection C^-1 A^T, and the report runs no other rational solve
    from bunpic.exact_algebra import rational_coordinates

    runs = count_body_runs(monkeypatch, [("invariant_forms", "_sc_projection")])
    solves = []

    def counted(m, b):
        solves.append((m, b))
        return rational_coordinates(m, b)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bunpic" and hasattr(module, "rational_coordinates"):
            monkeypatch.setattr(module, "rational_coordinates", counted)
    run_full_report(monkeypatch, group, delta, family)
    assert runs == {"_sc_projection": 1}
    assert len(solves) == 1


def count_cross_diagram_builds(monkeypatch):
    """Count the builds of ``cross_diagram`` by the module that calls it: the
    builder is wrapped under its name in every bunpic module that holds it."""
    from bunpic.root_datum import cross_diagram

    callers = collections.Counter()

    def counted(g):
        callers[sys._getframe(1).f_globals["__name__"]] += 1
        return cross_diagram(g)

    for name, module in list(sys.modules.items()):
        holds = getattr(module, "cross_diagram", None) is cross_diagram
        if name.partition(".")[0] == "bunpic" and holds:
            monkeypatch.setattr(module, "cross_diagram", counted)
    return callers


@pytest.mark.parametrize("group,delta,family", [
    ("E8", (), "universal:2,1"), ("SO(10)*PGL(4)", (1, 1), "universal:2,1"),
    ("GL(3)*T(1)", (1, 1), "universal:2,1"),
    ("E8", (), "genus0_nontrivial"), ("GL(2)", (1,), "genus0_nontrivial"),
])
def test_report_engines_build_one_cross_diagram(monkeypatch, group, delta, family):
    # the form, NS, Picard and gerbe engines read the cross diagram kept by
    # _derived_quotient; only the hypothesis gates of bunpic.family build
    # their own
    builds = count_cross_diagram_builds(monkeypatch)
    run_full_report(monkeypatch, group, delta, family)
    engines = {caller: n for caller, n in builds.items() if caller != "bunpic.family"}
    assert engines == {"bunpic.invariant_forms": 1}


@pytest.mark.parametrize("group,delta", [("E8", ()), ("GL(3)*T(1)", (1, 1)), ("GL(2)", (1,)),
                                         ("GL(3)", (0,))])
def test_genus0_report_computes_each_ns_group_once(monkeypatch, group, delta):
    # ns and picard share the generic lift of NS Bun(P^1); rigidified and gerbe
    # share coker(ev-hat), and all three one sc evaluation; NS(Bun) and
    # NS(rigidified) share one compatible lattice
    runs = count_body_runs(monkeypatch)
    g = run_full_report(monkeypatch, group, delta, "genus0_nontrivial")
    assert runs["_ns_bun_p1"] == 1
    assert runs["_ev_hat_data"] == 1
    assert runs["_sc_evaluation"] == 1
    assert runs["_ns_compatible"] == 1
    assert_equals_a_fresh_group(g, group)
