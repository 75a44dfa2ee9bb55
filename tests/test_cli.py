"""Workspace parsing, serialization round-trips, and the command surface."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from triadica.algebra import truncated_poly_algebra
from triadica.cli import COMMAND_TABLE, COMMANDS, build_parser, main
from triadica.dtcat import check_morphism, compose, pullback_morphism
from triadica.finspace import ContinuousMap, discrete_space, sierpinski_space
from triadica.kaehler import kaehler_presheaf
from triadica.sheaf import constant_presheaf
from triadica.triad import function_triad, validate_triad
from triadica.workspace import (ParseError, UnresolvedReference,
                                WorkspaceDocument, dump_workspace,
                                load_workspace, morphism_from_json,
                                morphism_to_json, parse_workspace,
                                triad_from_json, triad_to_json)

WORKSPACES = pathlib.Path(__file__).parent / "workspaces"

VALID_FILES = sorted(p.name for p in WORKSPACES.glob("ws_*.json"))
BROKEN_FILES = sorted(p.name for p in WORKSPACES.glob("bad_*.json"))


def ws(name):
    return str(WORKSPACES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# round-trips


def test_triad_survives_serialization():
    cases = [
        function_triad(discrete_space(2)),
        function_triad(sierpinski_space()),
        kaehler_presheaf(constant_presheaf(
            sierpinski_space(), truncated_poly_algebra(2))).presheaf_triad,
    ]
    doc = WorkspaceDocument()
    for t in cases:
        assert triad_from_json(triad_to_json(t), doc, "t") == t


def test_morphism_survives_serialization():
    f = ContinuousMap(discrete_space(2), discrete_space(3), (2, 0))
    m = pullback_morphism(f)
    doc = WorkspaceDocument()
    assert morphism_from_json(morphism_to_json(m), doc, "m") == m


def test_every_valid_corpus_file_parses():
    for name in VALID_FILES:
        doc = load_workspace(ws(name))
        # and everything inside reserializes to an equal object
        blank = WorkspaceDocument()
        for t in doc.triads.values():
            assert triad_from_json(triad_to_json(t), blank, "t") == t
        for m in doc.morphisms.values():
            assert morphism_from_json(morphism_to_json(m), blank, "m") == m


def test_sections_may_reference_named_algebras():
    text = dump_workspace({
        "schema": 1,
        "spaces": {"PT": {"points": 1, "opens": [[], [0]]}},
        "algebras": {"F1": "function_algebra 1"},
        "presheaves": {"P": {"space": "PT",
                             "sections": ["function_algebra 0", "F1"],
                             "restrictions": {}}},
    })
    doc = parse_workspace(text)
    assert doc.presheaves["P"].sections[1] == doc.algebras["F1"]


# ---------------------------------------------------------------------------
# parse failures


def test_syntax_error_carries_line_position():
    with pytest.raises(ParseError) as err:
        parse_workspace('{"schema": 1,\n  "spaces": {')
    assert "line" in str(err.value)


def test_floats_are_rejected():
    with pytest.raises(ParseError):
        parse_workspace('{"schema": 1, "algebras": '
                        '{"A": {"struct": [[[0.25]]], "unit": ["1"]}}}')


def test_zero_denominator_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_workspace('{"schema": 1, "algebras": '
                        '{"A": {"struct": [[["1/0"]]], "unit": ["1"]}}}')
    assert "struct[0][0][0]" in str(err.value)


def test_undefined_reference_names_the_culprit():
    with pytest.raises(UnresolvedReference) as err:
        parse_workspace('{"schema": 1, "triads": {"T": "MISSING"}}')
    assert err.value.name == "MISSING"
    assert "triads.T" in err.value.location


def test_names_must_be_globally_unique():
    with pytest.raises(ParseError) as err:
        parse_workspace('{"schema": 1, '
                        '"spaces": {"X": {"points": 1, "opens": [[], [0]]}}, '
                        '"algebras": {"X": "function_algebra 1"}}')
    assert "duplicate" in str(err.value)


def test_schema_version_is_checked():
    with pytest.raises(ParseError):
        parse_workspace('{"schema": 2}')


def test_discontinuous_map_is_a_parse_error():
    text = dump_workspace({
        "schema": 1,
        "spaces": {"S": {"points": 2, "opens": [[], [0], [0, 1]]}},
        "maps": {"FLIP": {"domain": "S", "codomain": "S", "values": [1, 0]}},
    })
    with pytest.raises(ParseError) as err:
        parse_workspace(text)
    assert "maps.FLIP" in str(err.value)


# ---------------------------------------------------------------------------
# exit codes over the corpus


@pytest.mark.parametrize("name", BROKEN_FILES)
def test_broken_documents_exit_2(capsys, name):
    code, out, err = run_cli(capsys, "validate", "--workspace", ws(name))
    assert code == 2
    assert out == ""
    assert err.startswith("triadica:")


CORPUS_EXPECTATIONS = [
    (["validate", "--workspace", ws("ws_minimal.json")], 0),
    (["validate", "--workspace", ws("ws_kaehler_point.json")], 0),
    (["validate", "--workspace", ws("ws_function_triads.json")], 0),
    (["validate", "--workspace", ws("ws_mixed_base.json")], 0),
    (["validate", "--workspace", ws("ws_sheafify.json")], 0),
    (["validate", "--workspace", ws("ws_bad_topology.json")], 1),
    (["validate", "--workspace", ws("ws_bad_leibniz.json")], 1),
    (["check-morphism", "--workspace", ws("ws_morphism_chain.json")], 0),
    (["check-morphism", "--workspace", ws("ws_function_triads.json")], 0),
    (["check-morphism", "--workspace", ws("ws_bad_morphism.json")], 1),
    (["kaehler", "--workspace", ws("ws_kaehler_point.json")], 0),
    (["sheafify", "--workspace", ws("ws_sheafify.json")], 0),
    (["pushforward", "--workspace", ws("ws_pushforward.json"),
      "--target", "COLLAPSE:FT2", "--target", "SID:FTS"], 0),
    (["compose", "--workspace", ws("ws_morphism_chain.json"),
      "--target", "E20:E11", "--target", "E11:E12"], 0),
    (["constant-morphism", "--workspace", ws("ws_constant_morphism.json"),
      "--target", "FT2:FTS:1", "--target", "FTS:FT2:0"], 0),
    (["uniqueness", "--workspace", ws("ws_uniqueness.json"),
      "--target", "U_BASE:U_OFF"], 0),
    (["uniqueness", "--workspace", ws("ws_uniqueness.json"),
      "--target", "X_FIRST:X_SECOND"], 1),
    (["recover-map", "--workspace", ws("ws_function_triads.json"),
      "--target", "PB_SWAP", "--target", "PB_INTO3"], 0),
    (["fullness", "--workspace", ws("ws_fullness.json"),
      "--target", "D2:D3"], 0),
    (["spectrum", "--workspace", ws("ws_spectrum.json"),
      "--target", "F3", "--target", "A2"], 0),
    (["spectrum", "--workspace", ws("ws_spectrum.json"),
      "--target", "SQRT2"], 1),
]


@pytest.mark.parametrize("argv,expected", CORPUS_EXPECTATIONS,
                         ids=[" ".join([a[0]] + [x.rsplit("/", 1)[-1]
                                                 for x in a[1:]])
                              for a, _ in CORPUS_EXPECTATIONS])
def test_corpus_exit_codes(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected, err or out


def test_oversized_integer_literal_exits_2(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"schema": 1, "algebras": {"A": {"struct": [[["1"]]], '
                    '"unit": [' + "7" * 5000 + ']}}}')
    code, out, err = run_cli(capsys, "validate", "--workspace", str(path))
    assert code == 2 and out == ""
    assert err.startswith("triadica:") and err.count("\n") == 1
    assert "4300" in err


def test_deeply_nested_arrays_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "validate", "--workspace", str(path))
    assert code == 2 and out == ""
    assert err.startswith("triadica:") and err.count("\n") == 1
    assert "RecursionError" in err


def test_kaehler_refuses_an_algebra_with_a_broken_unit(capsys, tmp_path):
    # Q[x]/(x^2) with x declared as the unit
    path = tmp_path / "unit.json"
    path.write_text(dump_workspace({"schema": 1, "algebras": {"B": {
        "struct": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
        "unit": ["0", "1"]}}}))
    code, out, _ = run_cli(capsys, "validate", "--workspace", str(path))
    assert code == 1 and "unit is not a left unit" in out
    for command in ("kaehler", "spectrum"):
        code, out, _ = run_cli(capsys, command, "--workspace", str(path))
        assert code == 1
        findings = json.loads(out)["reports"][0]["findings"]
        assert [f["severity"] for f in findings] == ["error"]
        assert "unit is not a left unit" in findings[0]["message"]
        assert "derived_artifacts" not in json.loads(out)["reports"][0]


def test_presheaf_on_a_non_topology_is_refused(capsys, tmp_path):
    # {0} and {1} are open but their union {0, 1} is not
    path = tmp_path / "space.json"
    path.write_text(dump_workspace({"schema": 1, "spaces": {"B": {
        "points": 3, "opens": [[], [0], [1], [0, 1, 2]]}}, "presheaves": {"P": {
            "space": "B",
            "sections": ["function_algebra 0", "function_algebra 1",
                         "function_algebra 1", "function_algebra 3"],
            "restrictions": {
                "3->1": {"rows": 1, "cols": 3, "entries": [["1", "0", "0"]]},
                "3->2": {"rows": 1, "cols": 3,
                         "entries": [["0", "1", "0"]]}}}}}))
    for command in ("validate", "sheafify", "kaehler"):
        code, out, _ = run_cli(capsys, command, "--workspace", str(path),
                               "--target", "P")
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert [f["message"] for f in report["findings"]] == [
            "not a topology: opens[1]|opens[2]: union of opens is not open"]
        assert "derived_artifacts" not in report


def test_validate_reports_restrictions_that_do_not_compose(capsys, tmp_path):
    # 4->3 then 3->1 is [1, 1] but 4->1 is [1, 0]; the sheaf check must
    # still answer with a witness, not a traceback
    one = lambda *xs: {"rows": 1, "cols": len(xs), "entries": [list(xs)]}
    path = tmp_path / "presheaf.json"
    path.write_text(dump_workspace({"schema": 1, "spaces": {"V": {
        "points": 3, "opens": [[], [0], [0, 1], [0, 2], [0, 1, 2]]}},
        "presheaves": {"P": {
            "space": "V",
            "sections": ["function_algebra 0"] + ["function_algebra 1"] * 3
                        + ["function_algebra 2"],
            "restrictions": {"2->1": one("1"), "3->1": one("1"),
                             "4->1": one("1", "0"), "4->2": one("1", "0"),
                             "4->3": one("1", "1")}}}}))
    code, out, err = run_cli(capsys, "validate", "--workspace", str(path),
                             "--target", "P")
    assert code == 1 and err == ""
    messages = [f["message"] for f in json.loads(out)["reports"][0]["findings"]]
    assert "restriction maps do not compose functorially" in messages
    assert messages[-1] == "sheaf condition fails (1 witnesses)"


def test_invariant_checks_survive_optimized_mode():
    code = ("import sys\n"
            "from triadica.errors import InvariantError\n"
            "from triadica.report import Finding\n"
            "assert False, 'asserts run'\n"
            "try:\n"
            "    Finding('fatal', 'here', 'an unknown severity')\n"
            "except InvariantError:\n"
            "    print('raised', sys.flags.optimize)\n")
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised 1\n"


def test_missing_workspace_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "validate", "--workspace",
                             ws("no_such_file.json"))
    assert code == 2 and "cannot read" in err


def test_unknown_target_exits_2(capsys):
    code, out, err = run_cli(capsys, "validate",
                             "--workspace", ws("ws_minimal.json"),
                             "--target", "NOPE")
    assert code == 2 and "NOPE" in err


def test_wrong_section_target_exits_2(capsys):
    code, out, err = run_cli(capsys, "validate",
                             "--workspace", ws("ws_morphism_chain.json"),
                             "--target", "E11")
    assert code == 2 and "check-morphism" in err


def test_pair_commands_require_explicit_targets(capsys):
    code, out, err = run_cli(capsys, "compose",
                             "--workspace", ws("ws_morphism_chain.json"))
    assert code == 2 and "OUTER:INNER" in err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_recover_map_gates_non_discrete_spaces(capsys):
    argv = ["recover-map", "--workspace", ws("ws_function_triads.json"),
            "--target", "PB_SID"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "--exploratory" in err
    code, out, err = run_cli(capsys, *argv, "--exploratory")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exploratory"


@pytest.mark.parametrize("command,flag", [("validate", ("--bound", "5")),
                                          ("kaehler", ("--exploratory",))])
def test_commands_refuse_flags_they_do_not_read(capsys, command, flag):
    code, out, err = run_cli(capsys, command,
                             "--workspace", ws("ws_minimal.json"), *flag)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and flag[0] in err


def test_commands_that_read_a_flag_accept_it(capsys):
    code, out, _ = run_cli(capsys, "fullness",
                           "--workspace", ws("ws_fullness.json"),
                           "--target", "D2:D3", "--bound", "9")
    assert code == 0 and json.loads(out)["status"] == "pass"
    args = build_parser().parse_args(["recover-map", "--exploratory"])
    assert args.exploratory


def test_parser_offers_exactly_the_table_commands_and_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMAND_TABLE) == list(COMMANDS)
    common = {"-h", "--help", "--workspace", "--target", "--json", "--human"}
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        flags = {flag for flag, _ in COMMAND_TABLE[name].flags}
        assert options == common | flags
    assert {name: [flag for flag, _ in c.flags]
            for name, c in COMMAND_TABLE.items() if c.flags} == {
        "recover-map": ["--exploratory"], "fullness": ["--bound"]}


# ---------------------------------------------------------------------------
# report content


def test_fullness_counts_through_the_cli(capsys):
    code, out, _ = run_cli(capsys, "fullness",
                           "--workspace", ws("ws_fullness.json"),
                           "--target", "D2:D3", "--target", "D1:D2")
    assert code == 0
    payload = json.loads(out)
    by_target = {r["target"]: r for r in payload["reports"]}
    assert [r["target"] for r in payload["reports"]] == ["D1:D2", "D2:D3"]
    assert by_target["D2:D3"]["derived_artifacts"]["total"] == 9
    assert by_target["D1:D2"]["derived_artifacts"]["total"] == 2
    per_map = by_target["D2:D3"]["derived_artifacts"]["per_map"]
    assert len(per_map) == 9 and set(per_map.values()) == {1}


def test_fullness_over_sierpinski_is_exploratory(capsys):
    code, out, _ = run_cli(capsys, "fullness",
                           "--workspace", ws("ws_fullness.json"),
                           "--target", "S:S")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exploratory"
    assert payload["reports"][0]["derived_artifacts"]["total"] == 7


def test_uniqueness_dispatch(capsys):
    _, out, _ = run_cli(capsys, "uniqueness",
                        "--workspace", ws("ws_uniqueness.json"),
                        "--target", "U_BASE:U_OFF")
    report = json.loads(out)["reports"][0]
    assert report["operation"] == "differential_agreement_on_image"
    assert any(f["message"] == "agree on image, differ globally"
               for f in report["findings"])

    code, out, _ = run_cli(capsys, "uniqueness",
                           "--workspace", ws("ws_uniqueness.json"),
                           "--target", "X_FIRST:X_SECOND")
    report = json.loads(out)["reports"][0]
    assert code == 1
    assert report["operation"] == "algebra_component_uniqueness"
    assert any("nonzero constant" in f["message"] for f in report["findings"])


def test_spectrum_lists_characters_in_order(capsys):
    _, out, _ = run_cli(capsys, "spectrum",
                        "--workspace", ws("ws_spectrum.json"),
                        "--target", "F3")
    chars = json.loads(out)["reports"][0]["derived_artifacts"]["characters"]
    assert chars == [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]


def test_sheafify_reports_both_sides_of_gluing(capsys):
    _, out, _ = run_cli(capsys, "sheafify",
                        "--workspace", ws("ws_sheafify.json"))
    by_target = {r["target"]: r for r in json.loads(out)["reports"]}
    messages = {f["location"]: f["message"]
                for f in by_target["CQ_D2"]["findings"]}
    assert "fails" in messages["input"]
    assert messages["result"] == "sheaf condition holds"
    messages = {f["location"]: f["message"]
                for f in by_target["CQ_S"]["findings"]}
    assert messages["input"] == "sheaf condition holds"


def test_validate_reports_sheaf_status_as_information(capsys):
    # a presheaf that fails gluing still validates; sheafhood is advisory
    code, out, _ = run_cli(capsys, "validate",
                           "--workspace", ws("ws_sheafify.json"),
                           "--target", "CQ_D2")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["status"] == "pass"
    assert any(f["severity"] == "info" and "fails" in f["message"]
               for f in report["findings"])


# ---------------------------------------------------------------------------
# derived artifacts reload through the parser


def test_cli_kaehler_output_reloads_and_revalidates(capsys):
    _, out, _ = run_cli(capsys, "kaehler",
                        "--workspace", ws("ws_kaehler_point.json"),
                        "--target", "CP3")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]
    text = dump_workspace({"schema": 1,
                           "triads": {"K": derived["presheaf_triad"]}})
    reloaded = parse_workspace(text).triads["K"]
    assert validate_triad(reloaded).ok
    expected = kaehler_presheaf(constant_presheaf(
        discrete_space(1), truncated_poly_algebra(3))).presheaf_triad
    assert reloaded == expected


def test_cli_compose_output_reloads_as_the_library_composite(capsys):
    _, out, _ = run_cli(capsys, "compose",
                        "--workspace", ws("ws_morphism_chain.json"),
                        "--target", "E20:E11")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]["morphism"]
    doc = load_workspace(ws("ws_morphism_chain.json"))
    reloaded = morphism_from_json(derived, WorkspaceDocument(), "m")
    assert check_morphism(reloaded).ok
    assert reloaded == compose(doc.morphisms["E20"], doc.morphisms["E11"])


def test_cli_constant_morphism_output_reloads(capsys):
    _, out, _ = run_cli(capsys, "constant-morphism",
                        "--workspace", ws("ws_constant_morphism.json"),
                        "--target", "FT2:FTS:1")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]["morphism"]
    reloaded = morphism_from_json(derived, WorkspaceDocument(), "m")
    assert check_morphism(reloaded).ok
    assert reloaded.map.values == (1, 1)


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "validate",
                            "--workspace", ws("ws_kaehler_point.json"))
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out, _ = run_cli(capsys, "fullness",
                            "--workspace", ws("ws_fullness.json"),
                            "--target", "D2:D3", "--human")
        outputs.append(out)
    assert outputs[2] == outputs[3]
    assert outputs[2].endswith("overall: pass\n")


def test_reports_sorted_by_target_name(capsys):
    _, out, _ = run_cli(capsys, "validate",
                        "--workspace", ws("ws_function_triads.json"))
    targets = [r["target"] for r in json.loads(out)["reports"]]
    assert targets == sorted(targets)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "triadica.cli", "validate",
         "--workspace", ws("ws_minimal.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
