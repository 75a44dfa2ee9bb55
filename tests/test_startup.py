"""Importing the command line loads no module it does not use, and a
command runs only the layers it needs.

Every command runs in a fresh interpreter, so whatever `import
triadica.cli` pulls in is paid on each run.  `dataclasses` imports
`inspect`, and compiles methods for every class it decorates;
`triadica.record` does the same job without either.

The package registers each layer without running it, and a layer runs on
first use.  A layer module that has run is a plain `types.ModuleType`; one
that is registered but has not run is an instance of a subclass.
"""

import json
import subprocess
import sys

from test_cli import src_env
from test_trace_names import _layers

UNWANTED = ("dataclasses", "inspect")

# prints the triadica modules in sys.modules, and those that have run
REPORT = ("import json, sys, types\n"
          "mods = {n: m for n, m in sys.modules.items()\n"
          "        if n.startswith('triadica.')}\n"
          "print(json.dumps([sorted(mods), sorted(\n"
          "    n for n, m in mods.items() if type(m) is types.ModuleType)]))\n")

POINT = {"points": 1, "opens": [[], [0]]}


def _python(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_after(code: str) -> tuple[set[str], set[str]]:
    """The triadica modules registered and those run after `code`."""
    registered, ran = json.loads(_python(code + REPORT).stdout)
    return set(registered), set(ran)


def _run_command(argv) -> str:
    return ("import contextlib, io\n"
            "import triadica.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert triadica.cli.main({argv!r}) == 0\n")


def _workspace(tmp_path, **sections) -> str:
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"schema": 1, **sections}))
    return str(path)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = ("import sys\n"
            "import triadica.cli\n"
            f"print(sorted(m for m in {UNWANTED!r} if m in sys.modules))\n")
    assert _python(code).stdout == "[]\n"


def test_cli_import_registers_every_traced_layer():
    registered, _ = _modules_after("import triadica.cli\n")
    assert {f"triadica.{m}" for m in _layers()} <= registered


def test_cli_import_runs_no_triad_kaehler_or_dtcat():
    _, ran = _modules_after("import triadica.cli\n")
    assert "triadica.cli" in ran
    assert ran.isdisjoint({"triadica.triad", "triadica.kaehler",
                           "triadica.dtcat"})


def test_spectrum_on_algebras_runs_no_sheaf(tmp_path):
    ws = _workspace(tmp_path, algebras={"T": "truncated_poly 3",
                                        "F": "function_algebra 2"})
    _, ran = _modules_after(_run_command(["spectrum", "--workspace", ws]))
    assert "triadica.algebra" in ran
    assert "triadica.sheaf" not in ran


def test_validate_on_a_point_presheaf_runs_no_triad_kaehler_or_dtcat(
        tmp_path):
    ws = _workspace(tmp_path, spaces={"PT": POINT}, presheaves={
        "FP": {"space": "PT", "sections": ["function_algebra 0",
                                           "function_algebra 1"]}})
    _, ran = _modules_after(_run_command(["validate", "--workspace", ws]))
    assert "triadica.sheaf" in ran
    assert ran.isdisjoint({"triadica.triad", "triadica.kaehler",
                           "triadica.dtcat"})


def test_module_run_writes_nothing_to_stderr(tmp_path):
    ws = _workspace(tmp_path, spaces={"PT": POINT})
    proc = subprocess.run(
        [sys.executable, "-m", "triadica.cli", "validate", "--workspace", ws],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
    assert proc.stderr == ""
