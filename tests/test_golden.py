"""Golden digests of every command on every corpus file.

For each workspace under `workspaces/` and each CLI command, one invocation
runs with the targets the file offers: the command's default targets, or,
for commands that take ':'-joined targets, every combination the file's
sections allow.  Each invocation runs twice, with JSON output and with
`--human`.  The exit code and the SHA-256 of stdout and of stderr are
compared with `golden_digests.json`, so any change to a report's or an
error message's bytes shows here by command, file and output mode.  The
corpus itself is pinned too: `make_workspaces.py` must write every file it
generates byte for byte as committed.  After a deliberate output change, regenerate the table
with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which digests moved and why.
"""

import contextlib
import gc
import hashlib
import io
import json
import pathlib
import sys
import types
from collections import Counter

import pytest

import make_workspaces
from triadica.cli import COMMANDS, main
from triadica.report import TriadicaError
from triadica.workspace import load_workspace

HERE = pathlib.Path(__file__).parent
WORKSPACES = HERE / "workspaces"
DIGESTS = HERE / "golden_digests.json"
CORPUS = sorted(p.name for p in WORKSPACES.glob("*.json"))


def _pair_targets(command: str, doc) -> list[str]:
    """Every ':'-joined target the document offers for a pair command."""
    if command == "pushforward":
        return [f"{f}:{t}" for f in sorted(doc.maps) for t in sorted(doc.triads)]
    if command in ("compose", "uniqueness"):
        return [f"{a}:{b}" for a in sorted(doc.morphisms)
                for b in sorted(doc.morphisms)]
    if command == "constant-morphism":
        return [f"{s}:{t}:{c}" for s in sorted(doc.triads)
                for t, triad in sorted(doc.triads.items())
                for c in range(triad.space.point_count)]
    if command == "fullness":
        return [f"{x}:{y}" for x in sorted(doc.spaces) for y in sorted(doc.spaces)]
    return []


def invocation(command: str, name: str, human: bool) -> list[str]:
    return command_argv(command, str(WORKSPACES / name), human)


def command_argv(command: str, path: str, human: bool = False) -> list[str]:
    """The command on the workspace at path with every target it offers."""
    argv = [command, "--workspace", path]
    if human:
        argv.append("--human")
    try:
        doc = load_workspace(path)
    except TriadicaError:  # unparsable files run with no targets at all
        return argv
    for target in _pair_targets(command, doc):
        argv += ["--target", target]
    if command == "recover-map":
        argv.append("--exploratory")
    return argv


def _sha256(stream: io.StringIO) -> str:
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def digest(command: str, name: str, human: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(invocation(command, name, human))
    return {"exit": code, "stdout_sha256": _sha256(out),
            "stderr_sha256": _sha256(err)}


def key(command: str, name: str, human: bool) -> str:
    return f"{command} {name}" + (" --human" if human else "")


CASES = [(c, n, h) for n in CORPUS for c in COMMANDS for h in (False, True)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_golden_table_covers_the_corpus(golden):
    assert sorted(golden) == sorted(key(*case) for case in CASES)


@pytest.mark.parametrize("command,name,human", CASES,
                         ids=[key(*case) for case in CASES])
def test_golden_digest(golden, command, name, human):
    assert digest(command, name, human) == golden[key(command, name, human)]


def _cycles(thunk) -> tuple[object, Counter]:
    """What `thunk()` returns, and the kinds of the objects it leaves that
    only the cyclic collector would free: their types, and the module of
    each function among them.  With the collector off, everything `thunk`
    allocates stays in the youngest generation, so collecting that one
    finds them all."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = thunk()
        gc.collect(0)
        kinds = Counter((type(o).__name__, o.__module__
                         if isinstance(o, types.FunctionType) else None)
                        for o in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.collect(1)  # the saved objects, now unreferenced, and the survivors
    return result, kinds


def test_a_run_leaves_no_cycle_but_the_json_encoders(capsys):
    # `console_entry` turns the collector off; what a run leaves for it is
    # one closure cycle of json.dumps(indent=2), the same for every report,
    # so nothing grows with the input
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        _, encoder = _cycles(lambda: json.dumps({"a": [1]}, indent=2))
        left = {}
        for case in CASES:
            code, kinds = _cycles(lambda: main(invocation(*case)))
            left[key(*case)] = kinds
            assert kinds in (Counter(), encoder), key(*case)
            assert bool(kinds) == (not case[2] and code in (0, 1)), key(*case)
    finally:
        if enabled:
            gc.enable()
    # the encoder's functions, their cells and the tuples and dict that hold them
    assert {m for _, m in encoder} == {None, "json.encoder"}
    # the JSON reports of the invocations that exit 0 or 1
    assert sum(bool(kinds) for kinds in left.values()) == 113
    capsys.readouterr()


def test_the_generator_rewrites_the_corpus_unchanged(tmp_path):
    make_workspaces.main(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) >= 12 and set(written) <= set(CORPUS)
    for name in written:
        assert (tmp_path / name).read_bytes() == (WORKSPACES / name).read_bytes(), name


if __name__ == "__main__":
    table = {key(*case): digest(*case) for case in CASES}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} digests to {DIGESTS}\n")
