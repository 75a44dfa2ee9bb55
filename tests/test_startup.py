"""Importing the command line loads no module it does not use, and a
command runs only the layers it needs.

Every command runs in a fresh interpreter, so whatever `import
triadica.cli` pulls in is paid on each run.  `dataclasses` imports
`inspect`, and compiles methods for every class it decorates;
`triadica.record` does the same job without either.  argparse (with
`gettext`) built a parser per command on every run; `cli` reads the
command line off its table instead.

The package registers each layer without running it, and a layer runs on
first use.  A layer module that has run is a plain `types.ModuleType`; one
that is registered but has not run is an instance of a subclass.  Each
command is pinned to the exact set of layers it runs on a minimal
workspace, so an eager `from .layer import name` that would run a layer a
command does not call fails here.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import triadica
from test_cli import src_env
from triadica.cli import COMMAND_TABLE
from test_trace_names import _layers

UNWANTED = ("dataclasses", "inspect", "argparse", "gettext")

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


def _run_command(argv, code: int = 0) -> str:
    return ("import contextlib, io\n"
            "import triadica.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert triadica.cli.main({argv!r}) == {code}\n")


def _workspace(tmp_path, **sections) -> str:
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"schema": 1, **sections}))
    return str(path)


def test_cli_import_leaves_unwanted_modules_unloaded():
    code = ("import sys\n"
            "import triadica.cli\n"
            f"print(sorted(m for m in {UNWANTED!r} if m in sys.modules))\n")
    assert _python(code).stdout == "[]\n"


def test_cli_import_registers_every_traced_layer():
    registered, _ = _modules_after("import triadica.cli\n")
    assert {f"triadica.{m}" for m in _layers()} <= registered


def test_every_layer_file_is_registered():
    # an unregistered file would run eagerly through `from . import`, and an
    # entry whose file is gone would fail only where its layer is first used
    files = pathlib.Path(triadica.__file__).parent.glob("*.py")
    assert set(triadica._EXPORTS) == {f.stem for f in files} - {"__init__", "cli"}


def test_cli_import_runs_no_triad_kaehler_or_dtcat():
    _, ran = _modules_after("import triadica.cli\n")
    assert "triadica.cli" in ran
    assert ran.isdisjoint({"triadica.triad", "triadica.kaehler",
                           "triadica.dtcat"})


def test_spectrum_on_algebras_runs_no_sheaf(tmp_path):
    ws = _workspace(tmp_path, algebras={"T": "truncated_poly 3",
                                        "F": "function_algebra 2"})
    _, ran = _modules_after(_run_command(["spectrum", "--workspace", ws]))
    assert {"triadica.algebra", "triadica.spectrum"} <= ran
    assert ran.isdisjoint({"triadica.sheaf", "triadica.finspace"})


def test_validate_on_spaces_runs_no_algebra(tmp_path):
    ws = _workspace(tmp_path, spaces={"PT": POINT})
    _, ran = _modules_after(_run_command(["validate", "--workspace", ws]))
    assert {"triadica.workspace", "triadica.finspace"} <= ran
    assert "triadica.algebra" not in ran


def test_validate_on_a_point_presheaf_runs_no_triad_kaehler_or_dtcat(
        tmp_path):
    ws = _workspace(tmp_path, spaces={"PT": POINT}, presheaves={
        "FP": {"space": "PT", "sections": ["function_algebra 0",
                                           "function_algebra 1"]}})
    _, ran = _modules_after(_run_command(["validate", "--workspace", ws]))
    assert {"triadica.sheaf", "triadica.algebra"} <= ran
    assert ran.isdisjoint({"triadica.triad", "triadica.kaehler",
                           "triadica.dtcat", "triadica.spectrum"})


def test_module_run_writes_nothing_to_stderr(tmp_path):
    ws = _workspace(tmp_path, spaces={"PT": POINT})
    proc = subprocess.run(
        [sys.executable, "-m", "triadica.cli", "validate", "--workspace", ws],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
    assert proc.stderr == ""


def test_module_run_leaves_unwanted_modules_unloaded(tmp_path):
    # a module run ends in os._exit, so no code runs after it: read the
    # imports off -X importtime, which lists each on stderr as it loads
    ws = _workspace(tmp_path, spaces={"PT": POINT})
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "triadica.cli", "validate",
         "--workspace", ws],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("import time:") for line in lines)
    imported = {line.rpartition("|")[2].strip() for line in lines}
    assert {"site", "triadica", "json"} <= imported
    assert sorted(m for m in UNWANTED if m in imported) == []


# ---------------------------------------------------------------------------
# the layers each command runs


SIERPINSKI = {"points": 2, "opens": [[], [0], [0, 1]]}
ON_POINT = {"spaces": {"X": POINT},
            "presheaves": {"P": {"space": "X", "sections": ["function_algebra 0",
                                                            "function_algebra 1"]}}}
EMPTY = {"rows": 0, "cols": 0, "entries": []}
TRIAD = {"algebras": "P",
         "modules": {"sections": [{"algebra_dim": 0, "dim": 0, "action": []},
                                  {"algebra_dim": 1, "dim": 0, "action": [[]]}]},
         "differentials": [EMPTY, {"rows": 0, "cols": 1, "entries": []}]}


def _morphism(c: str) -> dict:
    """Over the identity of the point, with c times the identity as its
    algebra component over the point."""
    return {"map": "I", "source": "T", "target": "T",
            "algebra_components": [EMPTY, {"rows": 1, "cols": 1, "entries": [[c]]}],
            "module_components": [EMPTY, EMPTY]}


WITH_TRIAD = dict(ON_POINT, maps={"I": {"domain": "X", "codomain": "X", "values": [0]}},
                  triads={"T": TRIAD})
# a document with a triad but no map or morphism
ONLY_TRIAD = dict(ON_POINT, triads={"U": TRIAD})
WITH_MORPHISMS = dict(WITH_TRIAD, morphisms={"M": _morphism("1"), "N": _morphism("2")})
# the layers every command that reads a document runs: reading the command
# line and the document
BASE = {"cli", "record", "report", "workspace"}
# what a command line that reads no document, such as --help, runs
COMMAND_LINE = BASE - {"workspace"}
PRESHEAF = BASE | {"algebra", "compound", "exactla", "finspace", "sheaf"}
# reading triads; reading maps or morphisms as well
TRIAD_LAYERS = PRESHEAF | {"triad"}
MORPHISM_LAYERS = TRIAD_LAYERS | {"compound_maps", "dtcat", "maps"}
# what a command that checks or writes a morphism or a triad adds
CHECKED = {"sheafmaps"}
WRITTEN = {"compound_dump", "sheafmaps"}
# what a command that checks the presheaf axioms adds, and the triad axioms
AXIOMS = {"axioms"}
TRIAD_AXIOMS = AXIOMS | {"triad_axioms"}

# command (with any flags), its target, the workspace sections, its exit
# code, the layers it runs
LAYERS_RUN = [
    ("validate", None, {"spaces": {"X": POINT}}, 0, BASE | {"finspace"}),
    ("validate", "A", {"algebras": {"A": "truncated_poly 2"}}, 0,
     BASE | {"algebra", "exactla"}),
    # the shape of the benchmark's start-up probe
    ("validate", "P", ON_POINT, 0, PRESHEAF | AXIOMS),
    ("validate", "U", ONLY_TRIAD, 0, TRIAD_LAYERS | TRIAD_AXIOMS),
    ("validate --human", None, {"spaces": {"X": POINT}}, 0, BASE | {"finspace"}),
    ("--help", None, {}, 0, COMMAND_LINE | {"synopsis"}),
    ("validate -h", None, {"spaces": {"X": POINT}}, 0, COMMAND_LINE | {"synopsis"}),
    # refused before the document is read
    ("validate --no-such-flag", None, {"spaces": {"X": POINT}}, 2, COMMAND_LINE),
    ("kaehler", None, {"algebras": {"A": "truncated_poly 2"}}, 0,
     BASE | {"algebra", "compound_dump", "exactla", "kaehler"}),
    ("kaehler", "P", ON_POINT, 0,
     PRESHEAF | WRITTEN | TRIAD_AXIOMS | {"gluing", "kaehler", "triad"}),
    ("sheafify", None, ON_POINT, 0, PRESHEAF | WRITTEN | AXIOMS | {"gluing"}),
    ("pushforward", "I:T", WITH_TRIAD, 0,
     TRIAD_LAYERS | WRITTEN | TRIAD_AXIOMS | {"compound_maps", "maps"}),
    ("check-morphism", "M", WITH_MORPHISMS, 0, MORPHISM_LAYERS | CHECKED),
    ("compose", "M:M", WITH_MORPHISMS, 0, MORPHISM_LAYERS | WRITTEN),
    ("constant-morphism", "T:T:0", WITH_TRIAD, 0, MORPHISM_LAYERS | WRITTEN),
    # a document without maps or morphisms runs no reader of them
    ("constant-morphism", "U:U:0", ONLY_TRIAD, 0,
     TRIAD_LAYERS | WRITTEN | {"dtcat", "maps"}),
    ("uniqueness", "M:N", WITH_MORPHISMS, 1, MORPHISM_LAYERS | {"uniqueness"}),
    ("recover-map", "M", WITH_MORPHISMS, 0, MORPHISM_LAYERS | WRITTEN),
    ("fullness", "X:X", {"spaces": {"X": POINT}}, 0,
     BASE | {"dtcat", "finspace", "maps"}),
    ("fullness", "S:S", {"spaces": {"S": SIERPINSKI}}, 0,
     BASE | {"dtcat", "finspace", "maps"}),
    ("spectrum", None, {"algebras": {"A": "truncated_poly 2"}}, 0,
     BASE | {"algebra", "exactla", "spectrum"}),
]


def test_every_command_is_pinned():
    assert {row[0].split()[0] for row in LAYERS_RUN} == set(COMMAND_TABLE) | {"--help"}


@pytest.mark.parametrize(
    "command,target,sections,code,layers", LAYERS_RUN,
    ids=[f"{row[0]}-{row[1] or 'all'}" for row in LAYERS_RUN])
def test_a_command_runs_exactly_the_layers_it_calls(tmp_path, command, target,
                                                    sections, code, layers):
    argv = [*command.split(), "--workspace", _workspace(tmp_path, **sections)]
    _, ran = _modules_after(_run_command(argv + ["--target", target] * bool(target),
                                         code))
    assert ran == {f"triadica.{layer}" for layer in layers}
