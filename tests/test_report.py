"""A report's status is read off its findings, and what the command line
renders of them is JSON already."""

import pytest

from triadica import cli
from triadica.report import Finding, Report, merge_reports

from test_golden import CASES, invocation

WARNING = Finding("warning", "hypothesis", "hypothesis not met", None)
ERROR = Finding("error", "open 0", "fails", [0, 1])
INFO = Finding("info", "count", "3 morphisms", 3)


@pytest.mark.parametrize("report,exploratory,status", [
    (Report("op", (WARNING,)), True, "exploratory"),
    (Report("op", (WARNING, ERROR)), True, "fail"),
    (Report("op", (ERROR, WARNING)), True, "fail"),
    (Report("op", (INFO,)), False, "pass"),
    (Report("op"), False, "pass"),
    (merge_reports("op", [Report("a", (INFO,)), Report("b", (WARNING,))]),
     True, "exploratory"),
    (merge_reports("op", [Report("a", (WARNING,)), Report("b", (ERROR,))]),
     True, "fail"),
    (merge_reports("op", [Report("a", (INFO,)), Report("b")]), False, "pass"),
], ids=["warning", "warning and error", "error and warning", "info",
        "no findings", "merged warning", "merged warning and error",
        "merged info"])
def test_status_is_read_off_the_severities(report, exploratory, status):
    assert report.exploratory is exploratory
    assert report.status == status
    assert report.ok is (status != "fail")


def test_a_report_holds_only_its_operation_and_findings():
    assert Report.__record_fields__ == ("operation", "findings")
    with pytest.raises(TypeError):
        Report("op", (), True)
    with pytest.raises(AttributeError):
        Report("op").exploratory = True


def _json_value(value) -> bool:
    """Whether `value` is made only of str, int, bool, None, lists or tuples,
    and dicts with str keys: what json.dumps writes with no default."""
    if value is None or type(value) in (str, int, bool):
        return True
    if type(value) in (list, tuple):
        return all(map(_json_value, value))
    if type(value) is dict:
        return all(type(k) is str and _json_value(v) for k, v in value.items())
    return False


@pytest.mark.parametrize("value,ok", [
    ({"open": 0, "pair": [1, 2], "defect": ("1/2",), "x": None, "y": True},
     True),
    ({0: "a"}, False), ([{"a": 1.5}], False), ({"a"}, False)])
def test_the_json_value_check(value, ok):
    assert _json_value(value) is ok


def test_every_corpus_report_is_rendered_from_json_values(monkeypatch):
    rendered = []

    def capture(command, rows):
        rendered.extend(rows)
        return render_json(command, rows)

    render_json = cli.render_json
    monkeypatch.setattr(cli, "render_json", capture)
    for command, name, human in CASES:
        if not human:
            cli.main(invocation(command, name, human))
    assert rendered
    for label, rep, derived in rendered:
        assert _json_value(derived), (label, rep.operation)
        for f in rep.findings:
            assert _json_value(f.witness), (label, f)
