import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclemod import _kernels, cli, io, theorems
from oraclemod.errors import InternalInvariantViolation
from oraclemod.frames import downset_frame
from oraclemod.pca import App, Const, K, parse_term, pp, tag_leaf, tag_node

from catalog import canonical_nuclei, dump_json, principal_downset

CHAIN2 = {"elements": ["p", "q"], "le": [["p", "q"]]}
# four disjoint two-element chains a_i < b_i: carrier 3**4 = 81
PAIRS4 = {"elements": [f"{x}{i}" for i in range(4) for x in "ab"],
          "le": [[f"a{i}", f"b{i}"] for i in range(4)]}


@pytest.fixture
def poset_file(tmp_path):
    path = tmp_path / "chain2.json"
    dump_json(CHAIN2, path)
    return str(path)


@pytest.fixture
def pairs4_file(tmp_path):
    path = tmp_path / "pairs4.json"
    dump_json(PAIRS4, path)
    return str(path)


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_frame_build(poset_file, capsys):
    code, out = run_capture(capsys, ["--format", "json", "frame", "build",
                                     "--poset", poset_file])
    assert code == 0
    body = json.loads(out)["body"]
    assert body["carrier"] == 3
    assert body["elements"] == [[], ["p"], ["p", "q"]]


def test_nuclei_enumerate_lists_four(poset_file, capsys):
    code, out = run_capture(capsys, ["--format", "json", "nuclei", "enumerate",
                                     "--poset", poset_file])
    assert code == 0
    body = json.loads(out)["body"]
    assert body["count"] == 4


def test_nuclei_validate_paths(poset_file, tmp_path, capsys):
    good = tmp_path / "dn.json"
    dump_json({"table": {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}}, good)
    code, out = run_capture(capsys, ["--format", "json", "nuclei", "validate",
                                     "--poset", poset_file, "--nucleus", str(good)])
    assert code == 0 and json.loads(out)["body"]["valid"]

    bad = tmp_path / "bad.json"
    dump_json({"table": {"": ["p"], "p": ["p", "q"], "p,q": ["p", "q"]}}, bad)
    code, out = run_capture(capsys, ["--format", "json", "nuclei", "validate",
                                     "--poset", poset_file, "--nucleus", str(bad)])
    assert code == 1
    assert json.loads(out)["body"]["violations"][0]["law"] == "idempotent"


def test_nuclei_sup(poset_file, tmp_path, capsys):
    closed = tmp_path / "closed.json"
    dump_json({"table": {"": ["p"], "p": ["p"], "p,q": ["p", "q"]}}, closed)
    dn = tmp_path / "dn.json"
    dump_json({"table": {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}}, dn)
    code, out = run_capture(capsys, ["--format", "json", "nuclei", "sup",
                                     "--poset", poset_file,
                                     "--nucleus", str(closed), "--nucleus", str(dn)])
    assert code == 0
    assert json.loads(out)["body"]["sup"] == {
        "": ["p", "q"], "p": ["p", "q"], "p,q": ["p", "q"]
    }


def test_nuclei_sup_on_carrier_81(pairs4_file, tmp_path, capsys):
    frame = downset_frame(io.poset_from_dict(PAIRS4))
    p, q = frame.element(["a0", "b0"]), frame.element(["a1"])

    def table(j):
        return io.nucleus_table_to_dict(frame, j.table)

    def sup(*js):
        argv = ["--format", "json", "nuclei", "sup", "--poset", pairs4_file]
        for i, j in enumerate(js):
            path = tmp_path / f"j{i}.json"
            dump_json({"table": table(j)}, path)
            argv += ["--nucleus", str(path)]
        code, out = run_capture(capsys, argv)
        assert code == 0
        return json.loads(out)["body"]["sup"]

    closed_p = canonical_nuclei(frame, "closed", p)
    assert sup(canonical_nuclei(frame, "open", p), closed_p) == table(
        canonical_nuclei(frame, "top"))
    assert sup(closed_p, canonical_nuclei(frame, "closed", q)) == table(
        canonical_nuclei(frame, "closed", frame.el(int(frame.join_table[p.index, q.index]))))


@pytest.mark.parametrize("verb", (["nuclei", "enumerate"], ["verify", "retraction"]))
def test_enumeration_size_limit_exits_3(pairs4_file, verb, capsys):
    assert cli.run(verb + ["--poset", pairs4_file]) == 3
    assert "exceed the enumeration limit of 16384 table cells" in capsys.readouterr().err


def test_verify_without_nuclei_runs_above_enumeration_limit(pairs4_file, capsys):
    code, out = run_capture(capsys, ["--format", "json", "verify", "oracle-leq",
                                     "--poset", pairs4_file, "--cases", "4"])
    assert code == 0
    assert json.loads(out)["body"]["reports"][0]["checked"] == 4


def test_oracle_compute_and_compare(poset_file, tmp_path, capsys):
    cdict = {
        "shapes": ["a0", "a1", "a2"],
        "pred": {"a0": ["p", "q"], "a1": ["p"], "a2": ["p", "q"]},
    }
    cfile = tmp_path / "lem.json"
    dump_json(cdict, cfile)
    code, out = run_capture(capsys, ["--format", "json", "oracle", "compute",
                                     "--poset", poset_file, "--container", str(cfile)])
    assert code == 0
    assert json.loads(out)["body"]["modality"] == {
        "": [], "p": ["p", "q"], "p,q": ["p", "q"]
    }
    code, out = run_capture(capsys, ["--format", "json", "oracle", "compare",
                                     "--poset", poset_file, "--container", str(cfile)])
    assert code == 0 and json.loads(out)["body"]["agree"]


@pytest.mark.parametrize("route", ("oracle_modality", "oracle_modality_kleene",
                                   "oracle_modality_bruteforce"))
def test_oracle_compare_needs_all_three_routes(monkeypatch, poset_file, tmp_path,
                                               route, capsys):
    # the LEM container's modality is double negation, not the top nucleus
    cfile = tmp_path / "lem.json"
    dump_json({"shapes": ["a0", "a1", "a2"],
               "pred": {"a0": ["p", "q"], "a1": ["p"], "a2": ["p", "q"]}}, cfile)
    monkeypatch.setattr(cli, route,
                        lambda c: canonical_nuclei(c.frame, "top"))
    code, out = run_capture(capsys, ["--format", "json", "oracle", "compare",
                                     "--poset", poset_file, "--container", str(cfile)])
    body = json.loads(out)["body"]
    assert code == 1 and body["agree"] is False
    dn = {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}
    assert (body["kleene"] == dn) == (route != "oracle_modality_kleene")
    assert (body["bruteforce"] == dn) == (route != "oracle_modality_bruteforce")


def test_verify_retraction_pass_and_injected_failure(poset_file, tmp_path, capsys):
    code, out = run_capture(capsys, ["--format", "json", "verify", "retraction",
                                     "--poset", poset_file])
    assert code == 0
    report = json.loads(out)["body"]["reports"][0]
    assert report["checked"] == 4 and report["failures"] == []

    bad = tmp_path / "bad.json"
    dump_json({"table": {"": ["p"], "p": ["p", "q"], "p,q": ["p", "q"]}}, bad)
    code, out = run_capture(capsys, ["--format", "json", "verify", "retraction",
                                     "--poset", poset_file, "--nucleus", str(bad)])
    assert code == 1
    report = json.loads(out)["body"]["reports"][0]
    assert report["checked"] == 5 and len(report["failures"]) == 1


def test_verify_all_passes(poset_file, capsys):
    code, out = run_capture(capsys, ["--format", "json", "verify", "all",
                                     "--poset", poset_file, "--cases", "40",
                                     "--seed", "5"])
    assert code == 0
    names = [r["theorem"] for r in json.loads(out)["body"]["reports"]]
    assert len(names) == 7


def test_verify_instance_vs_forcing_suite(monkeypatch, pairs4_file, capsys):
    # It needs no nuclei, so it runs above the enumeration limit too, and it
    # reports as it does inside "all", from the same rng stream.
    def reports(suite):
        code, out = run_capture(capsys, ["--format", "json", "verify", suite,
                                         "--poset", pairs4_file, "--cases", "4"])
        return code, json.loads(out)["body"]["reports"]

    code, (report,) = reports("instance-vs-forcing")
    assert code == 0 and report["theorem"] == "instance-vs-forcing"
    assert report["checked"] == 4 and report["failures"] == []
    assert report in reports("all")[1]
    monkeypatch.setattr(theorems, "instance_reducible", lambda c, d: True)
    code, (report,) = reports("instance-vs-forcing")
    assert code == 1 and report["failures"]


# -- the shared Kleene pass ----------------------------------------------------


def verify_reports(capsys, poset, *extra):
    code, out = run_capture(capsys, ["--format", "json", "verify", "all",
                                     "--poset", poset, *extra])
    return code, json.loads(out)["body"]["reports"]


@pytest.mark.parametrize("suite", ("all", "retraction", "instance-vs-forcing"))
def test_verify_makes_one_kleene_call(monkeypatch, poset_file, suite, capsys):
    calls = []
    real = theorems.oracle_modalities_kleene

    def counting(frame, cs, *args):
        calls.append(len(cs))
        return real(frame, cs, *args)

    monkeypatch.setattr(theorems, "oracle_modalities_kleene", counting)
    assert cli.run(["verify", suite, "--poset", poset_file, "--cases", "30"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("stack, referees", (
    ("tables", {"retraction", "forcing-iff", "oracle-leq", "least-above-instance", "sup",
                "surjection"}),
    ("maps", {"least-above-instance", "instance-vs-forcing"}),
))
def test_rolled_shared_pass_fails_its_readers(monkeypatch, poset_file, stack, referees,
                                              capsys):
    # each referee's slice then holds its neighbour's rows
    real = theorems.oracle_modalities_kleene

    def rolled(frame, cs, maps):
        tables = real(frame, cs, maps)
        if stack == "maps":
            maps[:] = np.roll(maps, 1, axis=0)
            return tables
        return np.roll(tables, 1, axis=0)

    monkeypatch.setattr(theorems, "oracle_modalities_kleene", rolled)
    code, reports = verify_reports(capsys, poset_file, "--cases", "30")
    assert code == 1
    assert {r["theorem"] for r in reports if r["failures"]} == referees


def test_verify_all_with_no_cases(poset_file, capsys):
    # every referee but the exhaustive retraction gets an empty slice
    code, reports = verify_reports(capsys, poset_file, "--cases", "0")
    assert code == 0
    assert [(r["checked"], r["coverage"], r["failures"]) for r in reports] == (
        [(4, "exhaustive", [])] + [(0, "sampled 0", [])] * 6)


def test_non_nucleus_in_shared_pass_is_a_bug(monkeypatch, poset_file, capsys):
    # The last row is a table only the validation reads: instance-vs-forcing
    # judges the single-query maps of its containers, not their modalities.
    real = _kernels.kleene_table

    def top_to_bottom(*args):
        tables = real(*args)
        tables[-1, -1] = 0
        return tables

    monkeypatch.setattr(_kernels, "kleene_table", top_to_bottom)
    assert cli.run(["verify", "all", "--poset", poset_file, "--cases", "30"]) == 4
    assert "computed modality violates nucleus laws: ['inflationary'" in (
        capsys.readouterr().err)


def test_trees_suite_runs_clean(capsys):
    code, out = run_capture(capsys, ["--format", "json", "trees", "suite",
                                     "--seed", "2", "--cases", "30"])
    assert code == 0
    suites = json.loads(out)["body"]["suites"]
    assert [s["suite"] for s in suites][0] == "monad-laws"


def test_pca_eval_exit_codes(capsys):
    code, out = run_capture(capsys, ["--format", "json", "pca", "eval",
                                     "--term", "S K K (K S)"])
    assert code == 0 and json.loads(out)["body"]["normal_form"] == "K S"
    code, out = run_capture(capsys, ["--format", "json", "pca", "eval", "--fuel",
                                     "200", "--term",
                                     "S (S K K) (S K K) (S (S K K) (S K K))"])
    assert code == 3


def test_weihrauch_check_verdict_codes(tmp_path, capsys):
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    dump_json({"entries": [{"instance": "K", "families": [["K S"]]}]},
              tmp_path / "g.json")
    base = ["--format", "json", "weihrauch", "check",
            "--f", str(tmp_path / "f.json")]
    # accepted: translate K S back into {S} by applying it to K
    code, _ = run_capture(capsys, base + ["--g", str(tmp_path / "g.json"),
                                          "--l1", "S K K",
                                          "--l2", "K (S (S K K) (K K))"])
    assert code == 0
    # rejected: identity translation leaves K S outside {S}
    code, out = run_capture(capsys, base + ["--g", str(tmp_path / "g.json"),
                                            "--l1", "S K K",
                                            "--l2", "K (S K K)"])
    assert code == 1 and json.loads(out)["body"]["verdict"] == "rejected"
    # unknown: diverging first reducer
    code, _ = run_capture(capsys, base + ["--g", str(tmp_path / "g.json"),
                                          "--l1", "K (S (S K K) (S K K) (S (S K K) (S K K)))",
                                          "--l2", "K (S K K)", "--fuel", "3000"])
    assert code == 3


def test_oracle_tree_check(tmp_path, capsys):
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    dump_json(["m0", "m1"], tmp_path / "s.json")
    term_src = pp(tag_leaf(Const("m0")))
    code, out = run_capture(capsys, ["--format", "json", "oracle-tree", "check",
                                     "--pred", str(tmp_path / "f.json"),
                                     "--s", str(tmp_path / "s.json"),
                                     "--term", term_src])
    assert code == 0 and json.loads(out)["body"]["verdict"] == "member"
    code, out = run_capture(capsys, ["--format", "json", "oracle-tree", "check",
                                     "--pred", str(tmp_path / "f.json"),
                                     "--s", str(tmp_path / "s.json"),
                                     "--term", pp(tag_leaf(Const("zz")))])
    assert code == 1


def test_oracle_tree_member_failing_recheck_exits_4(monkeypatch, tmp_path, capsys):
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    dump_json(["m0"], tmp_path / "s.json")
    rechecked = []

    def refuse(f, members, t, cert, fuel):
        rechecked.append(cert)
        return False

    monkeypatch.setattr(cli, "recheck_certificate_w", refuse)
    code = cli.run(["--format", "json", "oracle-tree", "check",
                    "--pred", str(tmp_path / "f.json"), "--s", str(tmp_path / "s.json"),
                    "--term", pp(tag_leaf(Const("m0")))])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert rechecked == [{"kind": "leaf", "payload": "m0"}]
    report = json.loads(captured.err)
    assert report["status"] == 4
    assert report["bug_report"] == {"error": "internal invariant violation",
                                    "detail": "member certificate failed its recheck"}


def test_instances_sharing_a_realizer_are_merged(tmp_path, capsys):
    # S K K K normalizes to K, so the second entry adds family [K] to K:
    # written apart or together, f has a family nothing in g translates into
    apart = {"entries": [{"instance": "K", "families": [["S"]]},
                         {"instance": "S K K K", "families": [["K"]]}]}
    together = {"entries": [{"instance": "K", "families": [["S"], ["K"]]}]}
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "g.json")
    bodies = []
    for name, doc in (("apart", apart), ("together", together)):
        dump_json(doc, tmp_path / f"{name}.json")
        code, out = run_capture(capsys, ["--format", "json", "weihrauch", "check",
                                         "--f", str(tmp_path / f"{name}.json"),
                                         "--g", str(tmp_path / "g.json"),
                                         "--l1", "S K K", "--l2", "K (S K K)"])
        assert code == 1
        bodies.append(json.loads(out)["body"])
    assert bodies[0] == bodies[1]
    assert bodies[0]["verdict"] == "rejected"


def test_long_reducer_spine_exits_3(tmp_path, capsys):
    # 1500 atoms: checked for oracle constants without recursing per atom
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    code, out = run_capture(capsys, ["--format", "json", "weihrauch", "check",
                                     "--f", str(tmp_path / "f.json"),
                                     "--g", str(tmp_path / "f.json"),
                                     "--l1", " ".join(["S"] * 1500),
                                     "--l2", "K (S K K)", "--fuel", "2000"])
    assert code == 3
    assert json.loads(out)["body"]["witness"] == "l1 (K) diverged"


DIVERGES = "S (S K K) (S K K) (S (S K K) (S K K))"


@pytest.mark.parametrize("verb", ("weihrauch", "oracle-tree"))
def test_realizer_out_of_fuel_exits_3(tmp_path, verb, capsys):
    # the term has no normal form, as an instance realizer or as an answer
    dump_json({"entries": [{"instance": DIVERGES, "families": [["S"]]}]},
              tmp_path / "div.json")
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    dump_json(["m0", DIVERGES], tmp_path / "s.json")
    if verb == "weihrauch":
        argv = ["weihrauch", "check", "--f", str(tmp_path / "div.json"),
                "--g", str(tmp_path / "div.json"), "--l1", "S K K",
                "--l2", "K (S K K)"]
    else:
        argv = ["oracle-tree", "check", "--pred", str(tmp_path / "f.json"),
                "--s", str(tmp_path / "s.json"), "--term", pp(tag_leaf(Const("m0")))]
    assert cli.run(argv + ["--fuel", "200"]) == 3
    assert "has no normal form within fuel 200" in capsys.readouterr().err


def test_json_reports_byte_identical(poset_file, capsys):
    argv = ["--format", "json", "verify", "all", "--poset", poset_file,
            "--cases", "25", "--seed", "9"]
    _, first = run_capture(capsys, argv)
    _, second = run_capture(capsys, argv)
    assert first == second


def test_output_file(poset_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_capture(capsys, ["--format", "json", "--output", str(out_path),
                                     "frame", "build", "--poset", poset_file])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["body"]["carrier"] == 3


def test_unwritable_output_exits_2(capsys):
    code = cli.run(["--output", "/nonexistent/x.json", "pca", "eval", "--term", "K"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("oraclemod: error:") and "x.json" in captured.err


@pytest.mark.parametrize("term", ("(", "K ("))
def test_truncated_term_exits_2(term, capsys):
    assert cli.run(["pca", "eval", "--term", term]) == 2
    assert capsys.readouterr().err.startswith("oraclemod: error:")


def test_long_spine_prints(capsys):
    # 1500 applications on the left spine: printed without recursing per atom
    term = " ".join(["x"] * 1500)
    code, out = run_capture(capsys, ["--format", "json", "pca", "eval", "--term", term])
    assert code == 0 and json.loads(out)["body"]["normal_form"] == term


# the K case is already normal: its normal form is itself, printed with
# minimal parentheses
@pytest.mark.parametrize("term, normal_form", (
    ("K (" * 600 + "S" + ")" * 600, "K (" * 599 + "K S" + ")" * 599),
    ("(" * 3000 + "S" + ")" * 3000, "S"),
), ids=("K-600", "parens-3000"))
def test_deeply_nested_term_parses(term, normal_form, capsys):
    code, out = run_capture(capsys, ["--format", "json", "pca", "eval", "--term", term])
    assert code == 0 and json.loads(out)["body"]["normal_form"] == normal_form


def test_deeply_nested_term_normalizes(capsys):
    # parsing, normalizing and printing all keep their own stacks; the
    # term is already normal and printed with minimal parentheses
    term = "K (" * 99_999 + "K S" + ")" * 99_999
    code, out = run_capture(capsys, ["--format", "json", "pca", "eval", "--term", term])
    body = json.loads(out)["body"]
    assert code == 0 and body["normal_form"] == term and body["steps"] == 0


SPINE = " ".join(["x"] * 1500)


def test_weihrauch_check_long_instance_spine(tmp_path, capsys):
    # instances are matched by printed normal form, not by recursive equality
    dump_json({"entries": [{"instance": SPINE, "families": [["y"]]}]},
              tmp_path / "f.json")
    code, out = run_capture(capsys, ["--format", "json", "weihrauch", "check",
                                     "--f", str(tmp_path / "f.json"),
                                     "--g", str(tmp_path / "f.json"),
                                     "--l1", "S K K", "--l2", "K (S K K)"])
    assert code == 0 and json.loads(out)["body"]["verdict"] == "accepted"


def test_oracle_tree_check_long_leaf_spine(tmp_path, capsys):
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    dump_json([SPINE], tmp_path / "s.json")
    term = pp(tag_leaf(parse_term(SPINE, auto_declare=True)))
    code, out = run_capture(capsys, ["--format", "json", "oracle-tree", "check",
                                     "--pred", str(tmp_path / "f.json"),
                                     "--s", str(tmp_path / "s.json"),
                                     "--term", term])
    assert code == 0 and json.loads(out)["body"]["verdict"] == "member"


@pytest.mark.parametrize("levels", (340, 2000))
@pytest.mark.parametrize("fmt", ("json", "text"))
def test_oracle_tree_check_deep_chain(tmp_path, levels, fmt):
    # tag_node(K, K t) nested per level over the leaf m0, under K -> [[S]]:
    # the check and both renderings of its certificate keep their own stacks
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    dump_json(["m0"], tmp_path / "s.json")
    t = tag_leaf(Const("m0"))
    for _ in range(levels):
        t = tag_node(K, App(K, t))
    report = tmp_path / "report"
    assert cli.run(["--format", fmt, "--output", str(report), "oracle-tree", "check",
                    "--pred", str(tmp_path / "f.json"), "--s", str(tmp_path / "s.json"),
                    "--term", pp(t), "--depth", str(levels)]) == 0
    text = report.read_text(encoding="utf-8")
    report.unlink()  # tens of megabytes at 2000 levels: indent grows with depth
    quote = '"' if fmt == "json" else ""
    assert f'{quote}verdict{quote}: "member"' in text
    assert text.count(f'{quote}realizer{quote}: "K"') == levels
    assert text.count(f'{quote}payload{quote}: "m0"') == 1


def test_emit_report_empty_body():
    report = {"header": {"command": "verify", "seed": 0, "version": "x"},
              "body": {"reports": []}, "status": 0}
    text = cli.emit_report(report, "text")
    assert "reports: []" in text
    twice = cli.emit_report(report, "json")
    assert twice == cli.emit_report(report, "json")
    assert json.loads(twice)["body"]["reports"] == []


# JSON values of every kind the reports may hold: escapes, non-ASCII text,
# empty and nested containers, tuples, large ints and floats
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-10**60, max_value=10**60) | st.floats(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.text()) | st.dictionaries(st.text(), inner)),
    max_leaves=25,
)


def dumps_report(report):
    """The JSON format's referee: the standard library's encoder."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES, st.dictionaries(st.text(), JSON_VALUES, max_size=4))
def test_json_report_equals_json_dumps(value, extra):
    report = {"body": value, **extra}
    assert cli.emit_report(report, "json") == dumps_report(report)


def test_json_report_nested_2000_levels():
    value = []
    for i in range(2000):
        value = {"inner": value, "tag": "é"} if i % 2 else [1.5, value, ["a", "b"]]
    report = {"body": value}
    rendered = cli.emit_report(report, "json")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)  # the referee recurses once per level
    try:
        assert rendered == dumps_report(report)
    finally:
        sys.setrecursionlimit(limit)


def test_json_report_renders_a_recurring_list_at_each_depth():
    # one list object many times at two depths, and a tuple, as a nucleus
    # table shares one label list among the elements it sends to one value
    shared, tup = ["p", 'q"é'], ("r",)
    report = {"body": {"a": shared, "b": [shared, {"c": shared, "d": tup}],
                       "e": [shared] * 5, "f": [tup, tup], "g": {"h": {"i": shared}}}}
    assert cli.emit_report(report, "json") == dumps_report(report)
    frame = downset_frame(io.poset_from_dict(PAIRS4))
    table = canonical_nuclei(frame, "closed", frame.el(40)).table
    d = io.nucleus_table_to_dict(frame, table)
    assert len({id(v) for v in d.values()}) == len(set(table.tolist())) < len(frame)
    report = {"body": {"sup": d, "nuclei": [d, {"table": d}]}}
    assert cli.emit_report(report, "json") == dumps_report(report)


@pytest.mark.parametrize("value", (object(), {1, 2}, b"bytes", 1j, [1, {"k": object()}]),
                         ids=("object", "set", "bytes", "complex", "nested"))
def test_json_report_refuses_what_json_refuses(value):
    report = {"body": value}
    with pytest.raises(TypeError) as ours:
        cli.emit_report(report, "json")
    with pytest.raises(TypeError) as theirs:
        dumps_report(report)
    assert str(ours.value) == str(theirs.value)


def test_json_report_refuses_cycles_and_non_string_keys():
    cycle = []
    cycle.append({"back": cycle})
    with pytest.raises(ValueError, match="Circular reference detected"):
        cli.emit_report({"body": cycle}, "json")
    with pytest.raises(TypeError, match="keys must be str, not int"):
        cli.emit_report({"body": {1: "one"}}, "json")


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_render_fault_exits_4(monkeypatch, poset_file, fmt, capsys):
    # a report that cannot be rendered is a fault of the program
    monkeypatch.setattr(cli, "_dispatch", lambda args: ({"value": object()}, 0))
    assert cli.run(["--format", fmt, "frame", "build", "--poset", poset_file]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "unexpected TypeError" in err
    assert "Object of type object is not JSON serializable" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-verb"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    assert cli.run(["frame", "build", "--poset", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("argv", (
    ["verify", "all", "--cases", "-3"],
    ["trees", "suite", "--depth", "-1"],
    ["trees", "suite", "--cases", "x"],
    ["pca", "eval", "--term", "K", "--fuel", "-1"],
))
def test_negative_counts_are_usage_errors(argv, capsys):
    if argv[0] == "verify":
        argv = argv + ["--poset", "chain2.json"]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_trees_suite_at_depth_0(capsys):
    code, out = run_capture(capsys, ["--format", "json", "trees", "suite",
                                     "--cases", "20", "--depth", "0"])
    assert code == 0
    assert all(s["cases"] == 20 for s in json.loads(out)["body"]["suites"])


@pytest.mark.parametrize("kind, doc", (
    ("poset", {"elements": [1, "a"], "le": []}),
    ("poset", [["p", "q"]]),
    ("container", {"shapes": ["a0"], "pred": {"a0": 5}}),
    ("nucleus", {"table": {"": 5}}),
    ("container", {"shapes": ["a0"], "pred": ["p"]}),
    ("nucleus", [1, 2]),
    ("nucleus", {"table": [1]}),
    ("weihrauch", {"entries": [{"instance": 5, "families": [["K"]]}]}),
    ("answers", [5]),
    ("weihrauch", {"entries": [{"instance": "K (", "families": [["K"]]}]}),
    ("weihrauch", {"entries": [{"instance": "K", "families": [["("]]}]}),
    ("container", {"shapes": ["a0", "a0"], "pred": {"a0": ["p"]}}),
    ("container", {"shapes": ["a0"], "pred": {"a0": ["p"], "a1": []}}),
    # a label that is empty or holds a comma cannot name an element by key
    ("poset", {"elements": ["", "c"], "le": []}),
    ("poset", {"elements": ["a,b", "c"], "le": []}),
    # a nucleus file is {"table": {...}}, never the bare table
    ("nucleus", {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}),
))
def test_malformed_json_values_exit_2(poset_file, tmp_path, kind, doc, capsys):
    path = str(tmp_path / "bad.json")
    dump_json(doc, path)
    good = str(tmp_path / "good.json")
    dump_json({"entries": [{"instance": "K", "families": [["K"]]}]}, good)
    argv = {
        "poset": ["frame", "build", "--poset", path],
        "container": ["oracle", "compute", "--poset", poset_file, "--container", path],
        "nucleus": ["nuclei", "validate", "--poset", poset_file, "--nucleus", path],
        "weihrauch": ["weihrauch", "check", "--f", path, "--g", good,
                      "--l1", "S K K", "--l2", "K (S K K)"],
        "answers": ["oracle-tree", "check", "--pred", good, "--s", path,
                    "--term", "K", "--depth", "2"],
    }[kind]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("oraclemod: error:") and "Traceback" not in err


@pytest.mark.parametrize("kind, doc, message", (
    ("poset", {"le": []}, 'poset has no "elements" field'),
    ("container", {"pred": {}}, 'container has no "shapes" field'),
    ("container", {"shapes": ["a0"]}, 'container has no "pred" field'),
    ("container", {"shapes": ["a0"], "pred": {}},
     """container "pred" has no entry for shape 'a0'"""),
    ("weihrauch", {}, 'Weihrauch predicate has no "entries" field'),
    ("weihrauch", {"entries": [{"instance": "K", "families": []}, {"families": []}]},
     'Weihrauch predicate entry 1 has no "instance" field'),
    ("weihrauch", {"entries": [{"instance": "K"}]},
     'Weihrauch predicate entry 0 has no "families" field'),
    ("answers", {"members": ["K"]}, 'answer set has no "terms" field'),
    ("container", {"shapes": ["a0", "a0"], "pred": {"a0": ["p"]}},
     """container "shapes" lists 'a0' twice"""),
    ("container", {"shapes": ["a0"], "pred": {"a0": ["p"]}, "extent": {"A": ["p"]}},
     """container "extent" names undeclared shape 'A'"""),
    ("poset", {"elements": ["", "c"], "le": []}, "poset label '' is empty or contains a comma"),
    ("poset", {"elements": ["a,b", "c"], "le": []},
     "poset label 'a,b' is empty or contains a comma"),
    ("nucleus", {"": [], "p": ["p", "q"], "p,q": ["p", "q"]},
     'nucleus file has no "table" field'),
))
def test_missing_field_is_named_and_exits_2(poset_file, tmp_path, kind, doc, message, capsys):
    path = str(tmp_path / "missing.json")
    dump_json(doc, path)
    good = str(tmp_path / "good.json")
    dump_json({"entries": [{"instance": "K", "families": [["K"]]}]}, good)
    argv = {
        "poset": ["frame", "build", "--poset", path],
        "container": ["oracle", "compute", "--poset", poset_file, "--container", path],
        "nucleus": ["nuclei", "validate", "--poset", poset_file, "--nucleus", path],
        "weihrauch": ["weihrauch", "check", "--f", path, "--g", good,
                      "--l1", "S K K", "--l2", "K (S K K)"],
        "answers": ["oracle-tree", "check", "--pred", good, "--s", path,
                    "--term", "K", "--depth", "2"],
    }[kind]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"oraclemod: error: {message}\n"


@pytest.mark.parametrize("kind, doc, message", (
    # j(bottom) is top but j(p) is p
    ("nucleus", {"table": {"": ["p", "q"], "p": ["p"], "p,q": ["p", "q"]}},
     "{path} is not a nucleus: violates ['meet_preservation', 'monotone']"),
    ("container", {"shapes": ["a0"], "pred": {"a0": ["p", "q"]}, "extent": {"a0": ["p"]}},
     "container is invalid: some P(a) is not below E(a)"),
    ("poset", {"elements": ["p", "q", "p"], "le": []}, "duplicate labels in poset description"),
))
def test_invalid_input_is_named_and_exits_2(poset_file, tmp_path, kind, doc, message, capsys):
    path = str(tmp_path / "invalid.json")
    dump_json(doc, path)
    argv = {
        "nucleus": ["nuclei", "sup", "--poset", poset_file, "--nucleus", path],
        "container": ["oracle", "compute", "--poset", poset_file, "--container", path],
        "poset": ["frame", "build", "--poset", path],
    }[kind]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"oraclemod: error: {message.format(path=path)}\n"


@pytest.mark.parametrize("term, code, normal_form", (
    ("S K K (K S)", 0, "K S"),
    ("S (S K K) (S K K) (S (S K K) (S K K))", 3, None),
))
def test_module_entry_point_passes_exit_code(term, code, normal_form):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "oraclemod.cli", "--format", "json", "pca",
                          "eval", "--fuel", "10", "--term", term],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stderr
    assert json.loads(run.stdout)["body"]["normal_form"] == normal_form


def test_carrier_over_limit_exits_3(tmp_path, capsys):
    # 13 incomparable labels have 2**13 = 8192 downsets; after 12 labels the
    # 4096 found so far already cost 13 * 4096**2 label steps a sweep
    path = str(tmp_path / "anti13.json")
    dump_json({"elements": [f"a{i}" for i in range(13)], "le": []}, path)
    assert cli.run(["frame", "build", "--poset", path]) == 3
    assert capsys.readouterr().err == (
        "oraclemod: error: frame build would take 218103808 label steps, over 201326592\n")


def test_long_chain_build_exits_3(tmp_path, capsys):
    # 600 labels: each sweep would take 600 * 601**2 label steps, though
    # the carrier is only 601
    labels = [f"x{i:03d}" for i in range(600)]
    path = str(tmp_path / "chain600.json")
    dump_json({"elements": labels, "le": [list(p) for p in zip(labels, labels[1:])]},
              path)
    assert cli.run(["frame", "build", "--poset", path]) == 3
    assert "frame build would take 216720600 label steps" in capsys.readouterr().err


def test_internal_invariant_exits_4(monkeypatch, poset_file, capsys):
    def boom(args):
        raise InternalInvariantViolation("synthetic")

    monkeypatch.setattr(cli, "_dispatch", boom)
    assert cli.run(["frame", "build", "--poset", poset_file]) == 4
    err = capsys.readouterr().err
    assert "synthetic" in err


@pytest.mark.parametrize("error", (ValueError, KeyError, TypeError))
def test_other_exceptions_are_bugs_exit_4(monkeypatch, poset_file, error, capsys):
    def boom(args):
        raise error("synthetic")

    monkeypatch.setattr(cli, "_dispatch", boom)
    assert cli.run(["--format", "json", "frame", "build", "--poset", poset_file]) == 4
    report = json.loads(capsys.readouterr().err)["bug_report"]
    assert report["error"] == f"unexpected {error.__name__}"
    assert "synthetic" in report["detail"]


def test_binary_poset_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.run(["frame", "build", "--poset", str(path)]) == 2
    assert capsys.readouterr().err == (
        "oraclemod: error: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte\n")


def test_frame_build_at_carrier_4096(tmp_path, capsys):
    path = str(tmp_path / "anti12.json")
    dump_json({"elements": [f"a{i:02d}" for i in range(12)], "le": []}, path)
    code, out = run_capture(capsys, ["--format", "json", "frame", "build", "--poset", path])
    assert code == 0
    assert json.loads(out)["body"]["carrier"] == 4096


TABLES = ("leq_table", "meet_table", "join_table", "implies_table")


@pytest.mark.parametrize("verb, status, built", (
    (["frame", "build"], 0, set()),
    (["oracle", "compute", "--container", "c.json"], 0, {"meet_table"}),
    (["nuclei", "validate", "--nucleus", "dn.json"], 0, {"meet_table"}),
    (["nuclei", "validate", "--nucleus", "bad.json"], 1, {"meet_table", "leq_table"}),
    (["nuclei", "sup", "--nucleus", "dn.json"], 0, {"meet_table"}),
    (["nuclei", "enumerate"], 0, {"meet_table"}),
    (["oracle", "compare", "--container", "c.json"], 0, set(TABLES)),
))
def test_verbs_build_only_the_tables_they_read(monkeypatch, poset_file, tmp_path, capsys,
                                               verb, status, built):
    dump_json({"shapes": ["a0"], "pred": {"a0": ["p"]}}, tmp_path / "c.json")
    dump_json({"table": {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}}, tmp_path / "dn.json")
    dump_json({"table": {"": ["p"], "p": ["p", "q"], "p,q": ["p", "q"]}},
              tmp_path / "bad.json")
    loaded, load_frame = [], io.load_frame

    def load(path):
        loaded.append(load_frame(path))
        return loaded[-1]

    monkeypatch.setattr(io, "load_frame", load)
    argv = verb[:2] + ["--poset", poset_file] + [
        str(tmp_path / a) if a.endswith(".json") else a for a in verb[2:]]
    assert cli.run(argv) == status
    [frame] = loaded
    assert {t for t in TABLES if t in frame.__dict__} == built


# -- io roundtrips -------------------------------------------------------------


def container_as_dict(c):
    """A container's shapes and their label lists, in the file layout."""
    labels = [list(c.frame.el(int(i)).labels) for i in (*c.prd, *c.ext)]
    k = len(c.shapes)
    return {"shapes": list(c.shapes), "pred": dict(zip(c.shapes, labels[:k])),
            "extent": dict(zip(c.shapes, labels[k:]))}


def test_poset_roundtrip():
    p = io.poset_from_dict(CHAIN2)
    assert p.labels == ("p", "q")
    assert principal_downset(p, "p") == {"p"} and principal_downset(p, "q") == {"p", "q"}


def test_nucleus_roundtrip():
    frame = downset_frame(io.poset_from_dict(CHAIN2))
    dn = canonical_nuclei(frame, "double_negation")
    d = {"table": {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}}
    table = io.nucleus_table_from_dict(frame, d)
    assert (table == dn.table).all()
    # values may equally be given in comma-joined string form
    stringy = {"table": {k: ",".join(v) for k, v in d["table"].items()}}
    assert (io.nucleus_table_from_dict(frame, stringy) == dn.table).all()


def test_every_spelling_of_an_element_reads_as_its_index():
    # the key and label list io writes take one lookup; reordered labels,
    # empty segments and a label named twice go through Frame.element
    frame = downset_frame(io.poset_from_dict(PAIRS4))
    for i, labels in enumerate(frame.element_labels):
        spellings = [",".join(labels), ",".join(reversed(labels)),
                     "," + ",,".join(labels) + ",", list(labels),
                     list(reversed(labels)), list(labels) + list(labels[:1])]
        for v in spellings:
            assert io._index_from_json(frame, v) == frame.element(labels).index == i
    table = np.arange(len(frame))[::-1]  # any table will do
    canonical = io.nucleus_table_to_dict(frame, table)
    reordered = {",".join(reversed(k.split(","))): v[::-1] for k, v in canonical.items()}
    assert list(reordered) != list(canonical)
    for d in (canonical, reordered):
        assert (io.nucleus_table_from_dict(frame, {"table": d}) == table).all()


@pytest.mark.parametrize("cell, message", (
    (("z", []), "['z'] is not an element of this frame"),
    (("q", []), "['q'] is not an element of this frame"),  # not a downset
    (("", ["p", "z", "z"]), "['p', 'z'] is not an element of this frame"),
    (("", "q,,z"), "['q', 'z'] is not an element of this frame"),
    (("", 7), "a frame element must be a label list or a comma-joined string, not 7"),
    (("", ["p", ["q"]]),
     "a frame element must be a label list or a comma-joined string, not ['p', ['q']]"),
), ids=("unknown-key", "non-downset-key", "unknown-label", "unknown-in-string",
        "number", "nested-list"))
def test_nucleus_naming_no_element_exits_2(tmp_path, capsys, cell, message):
    poset_path, path = str(tmp_path / "chain2.json"), str(tmp_path / "bad.json")
    dump_json(CHAIN2, poset_path)
    key, value = cell
    dump_json({"table": {"p": ["p"], "p,q": ["p", "q"], key: value}}, path)
    assert cli.run(["nuclei", "validate", "--poset", poset_path, "--nucleus", path]) == 2
    assert capsys.readouterr().err == f"oraclemod: error: {message}\n"


@pytest.mark.parametrize("swapped", [False, True])
def test_nucleus_listing_an_element_twice_exits_2(tmp_path, capsys, swapped):
    # "p,q" and "q,p" name one element of the frame of two incomparable labels
    poset_path, path = str(tmp_path / "anti2.json"), str(tmp_path / "twice.json")
    dump_json({"elements": ["p", "q"], "le": []}, poset_path)
    twice = [("p,q", ["p", "q"]), ("q,p", [])]
    table = {"": [], "p": ["p"], "q": ["q"], **dict(twice[::-1] if swapped else twice)}
    dump_json({"table": table}, path)
    assert cli.run(["nuclei", "validate", "--poset", poset_path, "--nucleus", path]) == 2
    assert capsys.readouterr().err == (
        "oraclemod: error: nucleus table lists element ['p', 'q'] twice\n")


@pytest.mark.parametrize("kind, text, key", (
    # one key twice in either order: neither value may silently win
    ("nucleus", '{"table": {"": [], "p": ["p"], "q": ["q"], '
                '"p,q": ["p", "q"], "p,q": []}}', "p,q"),
    ("nucleus", '{"table": {"": [], "p": ["p"], "q": ["q"], '
                '"p,q": [], "p,q": ["p", "q"]}}', "p,q"),
    ("container", '{"shapes": ["a"], "pred": {"a": []}, "pred": {"a": ["p"]}}', "pred"),
), ids=("table", "table-swapped", "container"))
def test_json_key_written_twice_exits_2(tmp_path, capsys, kind, text, key):
    poset_path, path = str(tmp_path / "anti2.json"), tmp_path / "twice.json"
    dump_json({"elements": ["p", "q"], "le": []}, poset_path)
    path.write_text(text, encoding="utf-8")
    argv = {"nucleus": ["nuclei", "validate", "--nucleus", str(path)],
            "container": ["oracle", "compute", "--container", str(path)]}[kind]
    assert cli.run(argv + ["--poset", poset_path]) == 2
    assert capsys.readouterr().err == (
        f"oraclemod: error: JSON object lists key {key!r} twice\n")


def test_partial_nucleus_table_exits_2(tmp_path, capsys):
    poset_path, path = str(tmp_path / "chain2.json"), str(tmp_path / "partial.json")
    dump_json(CHAIN2, poset_path)
    dump_json({"table": {"": ["p", "q"]}}, path)
    assert cli.run(["nuclei", "validate", "--poset", poset_path, "--nucleus", path]) == 2
    assert capsys.readouterr().err == (
        "oraclemod: error: nucleus table is not total on the carrier\n")


def test_container_roundtrip():
    frame = downset_frame(io.poset_from_dict(CHAIN2))
    d = {"shapes": ["a0"], "pred": {"a0": ["p"]}, "extent": {"a0": ["p", "q"]}}
    c = io.container_from_dict(frame, d)
    assert container_as_dict(c) == d
    # omitted extent defaults to top
    c2 = io.container_from_dict(frame, {"shapes": ["a0"], "pred": {"a0": ["p"]}})
    assert container_as_dict(c2)["extent"] == {"a0": list(frame.top.labels)}


def test_container_roundtrip_keeps_shape_order():
    frame = downset_frame(io.poset_from_dict(CHAIN2))
    d = {"shapes": ["b", "a"], "pred": {"b": ["p"], "a": []},
         "extent": {"b": ["p", "q"], "a": ["p"]}}
    assert container_as_dict(io.container_from_dict(frame, d)) == d


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.run(["frame", "build", "--poset", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"oraclemod: error: {path}: JSON nests too deeply to read\n")


def test_thousand_label_chain_build_exits_3_fast(tmp_path, capsys):
    labels = [f"x{i:04d}" for i in range(1000)]
    path = str(tmp_path / "chain1000.json")
    dump_json({"elements": labels, "le": [list(p) for p in zip(labels, labels[1:])]},
              path)
    start = time.perf_counter()
    assert cli.run(["frame", "build", "--poset", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "frame build would take 1002001000 label steps" in capsys.readouterr().err


def test_four_thousand_label_chain_build_exits_3_fast(tmp_path, capsys):
    # the order is kept as one bitmask per label, so closing the chain costs
    # little next to the refusal
    labels = [f"x{i:04d}" for i in range(4000)]
    path = str(tmp_path / "chain4000.json")
    dump_json({"elements": labels, "le": [list(p) for p in zip(labels, labels[1:])]},
              path)
    start = time.perf_counter()
    assert cli.run(["frame", "build", "--poset", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "frame build would take" in capsys.readouterr().err


def test_long_chain_enumeration_exits_3_fast(tmp_path, capsys):
    # carrier 25, but 2**24 nuclei: refused before any table is built
    labels = [f"x{i:02d}" for i in range(24)]
    path = str(tmp_path / "chain24.json")
    dump_json({"elements": labels, "le": [list(p) for p in zip(labels, labels[1:])]},
              path)
    start = time.perf_counter()
    assert cli.run(["nuclei", "enumerate", "--poset", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert ("2**24 nuclei on carrier 25 exceed the enumeration limit of 16384 table cells"
            in capsys.readouterr().err)


# -- one parser per process ----------------------------------------------------


@pytest.fixture
def fresh_parser():
    """Start and leave the test with no cached parser."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_reuse_keeps_no_injected_nuclei(fresh_parser, poset_file, tmp_path,
                                               capsys):
    plain = ["--format", "json", "verify", "retraction", "--poset", poset_file]
    bad = tmp_path / "bad.json"
    dump_json({"table": {"": ["p"], "p": ["p", "q"], "p,q": ["p", "q"]}}, bad)
    first = run_capture(capsys, plain)
    assert run_capture(capsys, plain + ["--nucleus", str(bad)])[0] == 1
    code, out = run_capture(capsys, plain)
    assert (code, out) == first
    assert json.loads(out)["body"]["reports"][0]["checked"] == 4


def test_parser_reuse_after_usage_error(fresh_parser, poset_file, capsys):
    argv = ["--format", "json", "verify", "retraction", "--poset", poset_file]
    first = run_capture(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "no-such-suite", "--poset", poset_file])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert first[0] == 0 and run_capture(capsys, argv) == first


def test_parser_reuse_after_output_file(fresh_parser, poset_file, tmp_path, capsys):
    argv = ["--format", "json", "frame", "build", "--poset", poset_file]
    out_path = tmp_path / "report.json"
    assert run_capture(capsys, argv[:2] + ["--output", str(out_path)] + argv[2:]) == (0, "")
    written = out_path.read_text()
    assert run_capture(capsys, argv) == (0, written)
    assert out_path.read_text() == written


def test_parser_built_once_per_process(fresh_parser, monkeypatch, poset_file, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["frame", "build"], ["nuclei", "enumerate"], ["verify", "sup"]):
        assert cli.run(argv + ["--poset", poset_file]) == 0
    assert len(built) == 1


# -- refused enumeration -------------------------------------------------------


def test_verify_all_reports_refused_enumeration(monkeypatch, pairs4_file, capsys):
    attempts = []
    real = theorems.nucleus_stack

    def counting(frame):
        attempts.append(frame)
        return real(frame)

    monkeypatch.setattr(theorems, "nucleus_stack", counting)
    code = cli.run(["--format", "json", "verify", "all", "--poset", pairs4_file,
                    "--cases", "4"])
    captured = capsys.readouterr()
    reports = {r["theorem"]: r for r in json.loads(captured.out)["body"]["reports"]}
    assert code == 3 and len(reports) == 7 and len(attempts) == 1
    assert captured.err.count("exceed the enumeration limit of 16384 table cells") == 1
    for name in ("oracle-leq", "surjection", "instance-vs-forcing"):
        assert reports[name]["checked"] > 0 and reports[name]["failures"] == []
    for name in ("retraction", "forcing-iff", "least-above-instance", "sup"):
        assert reports[name]["checked"] == 0 and reports[name]["failures"] == []
        assert reports[name]["coverage"] == "refused"
    assert json.loads(captured.out)["status"] == 3


def test_failure_beside_refused_enumeration_exits_1(monkeypatch, pairs4_file, capsys):
    def synthetic(*args):
        yield []
        return 1, ["synthetic"], "sampled 1"

    monkeypatch.setitem(theorems._CHECKERS, "surjection", synthetic)
    code = cli.run(["--format", "json", "verify", "all", "--poset", pairs4_file,
                    "--cases", "4"])
    captured = capsys.readouterr()
    assert code == 1 and json.loads(captured.out)["status"] == 1
    assert "exceed the enumeration limit" in captured.err
