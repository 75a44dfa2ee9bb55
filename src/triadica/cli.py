"""Command surface: load a workspace, run checks, print deterministic reports.

Every command reads one workspace file, resolves its targets, runs the
corresponding library operation per target, and prints a single report
document to stdout (JSON by default, text with --human).  Output is
byte-for-byte reproducible for a fixed input and flag set: targets are
processed in sorted order and JSON keys are sorted.

Exit codes: 0 when every report passes (exploratory counts as a pass with
a caveat), 1 when any report fails, 2 for usage errors, unreadable or
unparsable workspaces, and unresolved target names.  Library errors raised
while a command runs become error findings, never tracebacks.

`COMMAND_TABLE` holds one `Command` per command: the shape of its
targets, the workspace sections they are drawn from, the operation its
reports run under and a work function `(args, *parts) -> (Report,
derived)`, each per section where it differs, and the flags only that
command reads.  `run` is one loop over a table row: it resolves each
target, runs the work function under `_guarded` and collects the rows.
`COMMANDS`, the --help synopsis and the command line reader
`parse_command_line` are read off the same table.  A target is either a
single NAME from the listed sections (every such name, in sorted order,
when no --target is given) or names joined by ':' (names themselves
cannot contain ':'), one section per part, with POINT an integer:
pushforward MAP:TRIAD, compose OUTER:INNER, constant-morphism
SOURCE:TARGET:POINT, uniqueness FIRST:SECOND, fullness DOMAIN:CODOMAIN.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, NoReturn

from . import (algebra, axioms, dtcat, finspace, gluing, kaehler, spectrum,
               synopsis, triad, triad_axioms, uniqueness, workspace)
from .record import record
from .report import DimensionMismatchError, Finding, Report, TriadicaError, UsageError


def _guarded(operation: str, label: str, thunk):
    """Run one target; library failures become findings, not tracebacks.

    A UsageError from a work function names its target and propagates.
    """
    try:
        return thunk()
    except UsageError as exc:
        raise UsageError(f"target {label!r} {exc}") from None
    except TriadicaError as exc:
        return Report(operation, (Finding("error", label, str(exc), None),)), {}


# ---------------------------------------------------------------------------
# the command table


@record
class Command:
    """How one command's targets look and what runs on each of them.

    `shape` is "NAME" for a single name drawn from any of `sections`, or
    part names joined by ':' with one entry of `sections` per part (None
    for POINT, an integer).  `operation` is the operation reports run
    under and `work` the function run on each target, a `<command>_command`
    of the layer it drives, read in a lambda so that building the table runs
    no layer; for a NAME, either may be a dict giving it per section.  `flags` are
    the options only this command reads, each (flag, kind, default, help):
    kind `int` for a value read by `int()`, `bool` for a switch.
    """

    shape: str
    sections: tuple[str | None, ...]
    operation: str | dict[str, str]
    work: Callable | dict[str, Callable]
    flags: tuple = ()


# the options every command reads: `str` takes one value, `list` one per use
COMMON = (("--workspace", str, "workspace.json",
           "workspace file (default: workspace.json)"),
          ("--target", list, None, "target to run on; repeatable"))
BOUND = ("--bound", int, 64, "enumeration budget (default: 64)")
EXPLORATORY = ("--exploratory", bool, False,
               "allow operations whose result is only exploratory on the "
               "given input")

COMMAND_TABLE = {
    "validate": Command(
        "NAME", ("spaces", "algebras", "presheaves", "triads"), "validate",
        {"spaces": lambda args, x: (finspace.check_topology(x), {}),
         "algebras": lambda args, a: (algebra.validate_algebra(a), {}),
         "presheaves": lambda *p: axioms.validate_presheaf_command(*p),
         "triads": lambda *p: triad_axioms.validate_triad_command(*p)}),
    "kaehler": Command("NAME", ("algebras", "presheaves"),
                       {"algebras": "kaehler_module", "presheaves": "kaehler_presheaf"},
                       {"algebras": lambda *p: kaehler.kaehler_module_command(*p),
                        "presheaves": lambda *p: kaehler.kaehler_presheaf_command(*p)}),
    "sheafify": Command("NAME", ("presheaves",), "sheafify",
                        lambda *p: gluing.sheafify_command(*p)),
    "pushforward": Command("MAP:TRIAD", ("maps", "triads"), "pushforward_triad",
                           lambda *p: triad.pushforward_command(*p)),
    "check-morphism": Command("NAME", ("morphisms",), "check_morphism",
                              lambda args, m: (dtcat.check_morphism(m), {})),
    "compose": Command("OUTER:INNER", ("morphisms", "morphisms"), "compose",
                       lambda args, outer, inner:
                           dtcat.checked_morphism(dtcat.compose(outer, inner))),
    "constant-morphism": Command(
        "SOURCE:TARGET:POINT", ("triads", "triads", None),
        "constant_morphism", lambda args, source, target, c:
            dtcat.checked_morphism(dtcat.constant_morphism(source, target, c))),
    "uniqueness": Command("FIRST:SECOND", ("morphisms", "morphisms"), "uniqueness",
                          lambda *p: uniqueness.uniqueness_command(*p)),
    "recover-map": Command("NAME", ("morphisms",), "verify_pullback_forced",
                           lambda *p: dtcat.recover_map_command(*p), flags=(EXPLORATORY,)),
    "fullness": Command("DOMAIN:CODOMAIN", ("spaces", "spaces"), "fullness_check",
                        lambda *p: dtcat.fullness_command(*p), flags=(BOUND,)),
    "spectrum": Command("NAME", ("algebras",), "spectrum",
                        lambda *p: spectrum.spectrum_command(*p)),
}

COMMANDS = tuple(COMMAND_TABLE)


def _lookup(doc, name: str, sections, noun: str = "target") -> tuple[str, object]:
    """The section and object a name refers to, if it is in `sections`;
    errors call the name a `noun`."""
    section = doc.section_of(name)
    if section is None:
        raise UsageError(f"undefined {noun} {name!r}")
    if section not in sections:
        users = ", ".join(c for c, command in COMMAND_TABLE.items()
                          if section in command.sections)
        raise UsageError(f"{noun} {name!r} is in {section}, not in "
                         f"{' or '.join(sections)}; use {users} for {section}")
    return section, getattr(doc, section)[name]


def _part(doc, name: str, section: str | None):
    """One part of a ':'-joined target; errors name the part only."""
    if section is not None:
        return _lookup(doc, name, (section,), "name")[1]
    try:
        return int(name)
    except ValueError:
        raise UsageError(f"point {name!r} is not an integer") from None


def _resolve(doc, command: Command, target: str) -> tuple[str, Callable, tuple]:
    """The operation one target reports under, the work function run on
    it, and the parts it names."""
    if command.shape == "NAME":
        section, obj = _lookup(doc, target, command.sections)
        operation, work = (c[section] if isinstance(c, dict) else c
                           for c in (command.operation, command.work))
        return operation, work, (obj,)
    names = target.split(":")
    if len(names) != len(command.sections):
        raise UsageError(f"target {target!r} must look like {command.shape}")
    try:
        return command.operation, command.work, tuple(
            _part(doc, name, section)
            for name, section in zip(names, command.sections))
    except UsageError as exc:
        raise UsageError(f"target {target!r} {exc}") from None


def _targets(doc, command: Command, given) -> list[str]:
    if given:
        return given
    if command.shape != "NAME":
        raise UsageError(f"this command needs explicit --target "
                         f"{command.shape}")
    return sorted(name for s in command.sections for name in getattr(doc, s))


# ---------------------------------------------------------------------------
# rendering


def _overall(rows) -> str:
    statuses = {rep.status for _, rep, _ in rows}
    if "fail" in statuses:
        return "fail"
    if "exploratory" in statuses:
        return "exploratory"
    return "pass"


def render_json(command: str, rows) -> str:
    reports = []
    for label, rep, derived in rows:
        entry = {"target": label,
                 "operation": rep.operation,
                 "status": rep.status,
                 "findings": [{"severity": f.severity,
                               "location": f.location,
                               "message": f.message,
                               "witness": f.witness}
                              for f in rep.findings]}
        if derived:
            entry["derived_artifacts"] = derived
        reports.append(entry)
    return workspace.dump_workspace({"command": command,
                                     "status": _overall(rows),
                                     "reports": reports})


def render_human(command: str, rows) -> str:
    lines = [f"command: {command}"]
    for label, rep, derived in rows:
        lines.append(f"{label}: {rep.status} ({rep.operation})")
        for f in rep.findings:
            lines.append(f"  [{f.severity}] {f.location}: {f.message}")
        if derived:
            lines.append(f"  derived: {', '.join(sorted(derived))}")
    lines.append(f"overall: {_overall(rows)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry points


def _refuse(prog: str, message: str) -> NoReturn:
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flags_named(word: str, flags) -> list[str] | None:
    """The flags `word` names, whole or by a prefix; None for a value: as in
    argparse, '-', a negative number, a spaced word or one not led by '-'."""
    flag = word.partition("=")[0]
    hits = [f for f in flags
            if f == flag or word[:2] == "--" and f.startswith(flag)]
    if hits or word[:1] == "-" != word and " " not in word and \
            not re.match(r"-\d+$|-\d*\.\d+$", word):
        return hits
    return None


def parse_command_line(argv: list[str]) -> SimpleNamespace:
    """The command and option values of a command line, read off
    COMMAND_TABLE as argparse read them.  A refusal prints one line on
    stderr and raises SystemExit(2); -h or --help prints the synopsis and
    raises SystemExit(0)."""
    if argv[:1] and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        raise SystemExit(_write(synopsis.help_text(COMMAND_TABLE, COMMON)))
    if not argv or argv[0] not in COMMAND_TABLE:
        _refuse("triadica", f"argument command: invalid choice: {argv[0]!r} "
                f"(choose from {', '.join(map(repr, COMMANDS))})" if argv
                else "the following arguments are required: command")
    name, words, stray, mode = argv[0], iter(argv[1:]), [], None
    prog, declared = f"triadica {name}", COMMON + COMMAND_TABLE[name].flags
    kinds = {"-h": "help", "--help": "help", **{f: k for f, k, _, _ in declared},
             "--json": "mode", "--human": "mode"}
    args = {"command": name, "mode": "json", **{f[2:]: d for f, _, d, _ in declared}}
    for word in words:
        hits = word != "--" and _flags_named(word, kinds)
        if not hits:  # a stray value or flag, or '--' and all after it
            stray += [word, *words] if word == "--" else [word]
            continue
        if len(hits) > 1:
            _refuse(prog, f"ambiguous option: {word} could match {', '.join(hits)}")
        flag, (_, eq, value) = hits[0], word.partition("=")
        kind, dest = kinds[flag], flag[2:]
        if kind in (str, list, int) and not eq:
            value = next(words, None)
            if value is None or _flags_named(value, kinds) is not None:
                _refuse(prog, f"argument {flag}: expected one argument")
        elif eq and kind not in (str, list, int):
            _refuse(prog, f"argument {flag}: ignored explicit argument {value!r}")
        if kind == "help":
            raise SystemExit(_write(synopsis.help_text(COMMAND_TABLE, COMMON)))
        if kind == "mode" and mode not in (None, flag):
            _refuse(prog, f"argument {flag}: not allowed with argument {mode}")
        if kind == "mode":
            mode, args["mode"] = flag, dest
        elif kind is int:
            try:
                args[dest] = int(value)
            except ValueError:
                _refuse(prog, f"argument {flag}: invalid int value: {value!r}")
        else:
            args[dest] = (value if kind is str else True if kind is bool
                          else (args[dest] or []) + [value])
    if stray:
        _refuse("triadica", f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(**args)


def _write(text: str) -> int:
    """Write `text` on stdout: 0, or 2 if stdout is closed or missing (fd 1
    then points at os.devnull, so `console_entry`'s flush succeeds)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
        return 0
    except (OSError, AttributeError) as exc:  # no sys.stdout without fd 1
        print(f"triadica: cannot write report: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 2


def run(doc, args) -> tuple[int, str]:
    """Execute one parsed command against a loaded workspace."""
    command = COMMAND_TABLE[args.command]
    rows = []
    for target in _targets(doc, command, args.target):
        operation, work, parts = _resolve(doc, command, target)
        rep, derived = _guarded(operation, target, lambda: work(args, *parts))
        rows.append((target, rep, derived))
    rows.sort(key=lambda row: row[0])
    text = (render_human if args.mode == "human" else render_json)(
        args.command, rows)
    code = 1 if any(rep.status == "fail" for _, rep, _ in rows) else 0
    return code, text


def main(argv=None) -> int:
    """Run one command line and return its exit code; never end the process."""
    try:
        args = parse_command_line(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        doc = workspace.load_workspace(args.workspace)
    except OSError as exc:
        print(f"triadica: cannot read workspace: {exc}", file=sys.stderr)
        return 2
    except (workspace.ParseError, workspace.UnresolvedReference,
            DimensionMismatchError) as exc:
        print(f"triadica: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:
        # the JSON reader raises these for integer literals past the
        # interpreter's digit limit, deep nesting and undecodable bytes
        first_line = str(exc).partition("\n")[0]
        print(f"triadica: cannot load workspace: {type(exc).__name__}: "
              f"{first_line}", file=sys.stderr)
        return 2
    try:
        code, text = run(doc, args)
    except UsageError as exc:
        print(f"triadica: {exc}", file=sys.stderr)
        return 2
    return _write(text) or code


def console_entry() -> NoReturn:
    """`main` as a program: flush, then end without interpreter finalization
    (no atexit handler runs) unless a profiler's or tracer's report is due."""
    gc.disable()  # a run leaves the cyclic collector no work
    code = main()
    if sys.getprofile() or sys.gettrace():
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # None without its fd, a closed pipe
            pass
    os._exit(code)


if __name__ == "__main__":
    console_entry()
