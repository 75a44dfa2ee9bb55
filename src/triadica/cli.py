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

import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, NoReturn

from . import (algebra, compound, dtcat, finspace, kaehler, sheaf, triad,
               uniqueness)
from .errors import DimensionMismatchError, TriadicaError
from .record import record
from .report import Finding, Report
from .workspace import (ParseError, UnresolvedReference, dump_workspace,
                        load_workspace, matrix_to_json, module_sections_to_json)


class UsageError(TriadicaError):
    """Ill-formed request: wrong target shape or an unknown name."""


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


def _with_findings(rep: Report, extra) -> Report:
    return Report(rep.operation, rep.findings + tuple(extra))


def _sheaf_status(layers) -> list[Finding]:
    out = []
    for label, layer in layers:
        cert = sheaf.check_sheaf_condition(layer)
        if cert.is_sheaf:
            out.append(Finding("info", label, "sheaf condition holds", None))
        else:
            out.append(Finding(
                "info", label,
                f"sheaf condition fails ({len(cert.witnesses)} witnesses)",
                None))
    return out


# ---------------------------------------------------------------------------
# work functions: (args, *parts) -> (Report, derived dict)


def _validate_presheaf(args, p):
    rep = sheaf.validate_algebra_presheaf(p)
    return _with_findings(rep, _sheaf_status([("sections", p)])), {}


def _validate_triad(args, t):
    layers = [("algebra layer", t.algebras), ("module layer", t.modules)]
    return _with_findings(triad.validate_triad(t), _sheaf_status(layers)), {}


def _kaehler_module(args, a):
    k = kaehler.kaehler_module(a)
    # a has a unit, so multiplication a (x) a -> a is onto
    findings = (
        Finding("info", "ideal",
                f"multiplication kernel has dimension {a.dim * a.dim - a.dim}",
                None),
        Finding("info", "module",
                f"module of differentials has dimension {k.module.dim}",
                None))
    derived = {"module": module_sections_to_json(k.module),
               "differential": matrix_to_json(k.differential)}
    return Report("kaehler_module", findings), derived


def _kaehler_presheaf(args, p):
    res = kaehler.kaehler_presheaf(p)
    rep = triad.validate_triad(res.presheaf_triad)
    dims = [Finding("info", f"open {u}", f"module dimension {m.dim}", None)
            for u, m in enumerate(res.presheaf_triad.modules.sections)]
    derived = {"presheaf_triad": compound.triad_to_json(res.presheaf_triad),
               "sheaf_triad": compound.triad_to_json(res.sheaf_triad)}
    return _with_findings(rep, dims), derived


def _sheafify(args, p):
    findings = _sheaf_status([("input", p)])
    res = sheaf.sheafify(p)
    after = sheaf.check_sheaf_condition(res.presheaf)
    findings.append(Finding("info" if after.is_sheaf else "error", "result",
                            "sheaf condition holds" if after.is_sheaf else
                            "sheafification did not produce a sheaf", None))
    derived = {"sheaf": compound.presheaf_to_json(res.presheaf),
               "canonical_components": [matrix_to_json(c)
                                        for c in res.canonical.components]}
    return Report("sheafify", tuple(findings)), derived


def _pushforward(args, f, t):
    out = triad.pushforward_triad(f, t)
    return triad.validate_triad(out), {"triad": compound.triad_to_json(out)}


def _checked_morphism(m):
    return dtcat.check_morphism(m), {"morphism": compound.morphism_to_json(m)}


def _uniqueness(args, m1, m2):
    same_algebra = m1.algebra_components == m2.algebra_components
    same_module = m1.module_components == m2.module_components
    if same_algebra and not same_module:
        return uniqueness.differential_agreement_on_image(m1, m2), {}
    if same_module and not same_algebra:
        return uniqueness.algebra_component_uniqueness(m1, m2), {}
    if same_algebra and same_module:
        findings = (Finding("info", "components",
                            "the morphisms coincide in both layers", None),)
        return Report("uniqueness", findings), {}
    findings = (Finding(
        "error", "components",
        "the morphisms differ in both layers; no uniqueness "
        "hypothesis applies", None),)
    return Report("uniqueness", findings), {}


def _recover_map(args, m):
    f = m.map
    if not (args.exploratory or f.domain.is_discrete and f.codomain.is_discrete):
        raise UsageError("lives over non-discrete spaces; rerun with "
                         "--exploratory to inspect it anyway")
    return (dtcat.verify_pullback_forced(f, m.algebra_components),
            {"map": compound.map_to_json(f)})


def _fullness(args, x, y):
    res = dtcat.fullness_check(x, y, bound=args.bound)
    per_map = {",".join(str(v) for v in values): count
               for values, count in res.per_map}
    return res.report, {"total": res.total, "per_map": per_map}


def _spectrum(args, a):
    try:
        chars = algebra.characters(a)
    except algebra.NotSplitError as exc:
        return Report("spectrum",
                      (Finding("error", "characters", str(exc), None),)), {}
    functionals = [[str(x) for x in c.functional] for c in chars]
    findings = (Finding("info", "characters",
                        f"{len(chars)} rational characters", functionals),)
    return Report("spectrum", findings), {"characters": functionals}


# ---------------------------------------------------------------------------
# the command table


@record
class Command:
    """How one command's targets look and what runs on each of them.

    `shape` is "NAME" for a single name drawn from any of `sections`, or
    part names joined by ':' with one entry of `sections` per part (None
    for POINT, an integer).  `operation` is the operation reports run
    under and `work` the function run on each target; for a NAME, either
    may be a dict giving it per section where it differs.  `flags` are
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
         "presheaves": _validate_presheaf, "triads": _validate_triad}),
    "kaehler": Command("NAME", ("algebras", "presheaves"),
                       {"algebras": "kaehler_module",
                        "presheaves": "kaehler_presheaf"},
                       {"algebras": _kaehler_module,
                        "presheaves": _kaehler_presheaf}),
    "sheafify": Command("NAME", ("presheaves",), "sheafify", _sheafify),
    "pushforward": Command("MAP:TRIAD", ("maps", "triads"),
                           "pushforward_triad", _pushforward),
    "check-morphism": Command("NAME", ("morphisms",), "check_morphism",
                              lambda args, m: (dtcat.check_morphism(m), {})),
    "compose": Command("OUTER:INNER", ("morphisms", "morphisms"), "compose",
                       lambda args, outer, inner:
                           _checked_morphism(dtcat.compose(outer, inner))),
    "constant-morphism": Command(
        "SOURCE:TARGET:POINT", ("triads", "triads", None),
        "constant_morphism", lambda args, source, target, c:
            _checked_morphism(dtcat.constant_morphism(source, target, c))),
    "uniqueness": Command("FIRST:SECOND", ("morphisms", "morphisms"),
                          "uniqueness", _uniqueness),
    "recover-map": Command("NAME", ("morphisms",), "verify_pullback_forced",
                           _recover_map, flags=(EXPLORATORY,)),
    "fullness": Command("DOMAIN:CODOMAIN", ("spaces", "spaces"),
                        "fullness_check", _fullness, flags=(BOUND,)),
    "spectrum": Command("NAME", ("algebras",), "spectrum", _spectrum),
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
    return dump_workspace({"command": command,
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


METAVARS = {str: " FILE", list: " TARGET", int: " N", bool: ""}
NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")
HELP_TAIL = ("\n  --json, --human   report as JSON (default) or as text"
             "\n  -h, --help        print this synopsis\n"
             "\nA long option may be cut to any unique prefix: --work FILE, --b 9.\n")


def _help() -> str:
    """The synopsis of every command and option, read off COMMAND_TABLE."""
    lines = []
    for name, c in COMMAND_TABLE.items():
        usage = (f"[{f}{f' {c.shape} ...' if kind is list else METAVARS[kind]}]"
                 for f, kind, _, _ in COMMON + c.flags)
        lines.append(f"triadica {name:17} {' '.join(usage)} [--json|--human]")
    options = COMMON + sum((c.flags for c in COMMAND_TABLE.values()), ())
    lines += [""] + [f"  {f + METAVARS[kind]:17} {text}"
                     for f, kind, _, text in options]
    return "\n".join(lines) + HELP_TAIL


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
            not NEGATIVE_NUMBER.match(word):
        return hits
    return None


def parse_command_line(argv: list[str]) -> SimpleNamespace:
    """The command and option values of a command line, read off
    COMMAND_TABLE as argparse read them.  A refusal prints one line on
    stderr and raises SystemExit(2); -h or --help prints the synopsis and
    raises SystemExit(0)."""
    if argv[:1] and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        raise SystemExit(_write(_help()))
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
            raise SystemExit(_write(_help()))
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
    then points at os.devnull, so the interpreter's last flush succeeds)."""
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
    try:
        args = parse_command_line(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        doc = load_workspace(args.workspace)
    except OSError as exc:
        print(f"triadica: cannot read workspace: {exc}", file=sys.stderr)
        return 2
    except (ParseError, UnresolvedReference, DimensionMismatchError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
