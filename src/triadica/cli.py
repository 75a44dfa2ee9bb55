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

Composite targets use ':' between names (names themselves cannot contain
':'): pushforward MAP:TRIAD, compose OUTER:INNER, constant-morphism
SOURCE:TARGET:POINT, uniqueness FIRST:SECOND, fullness DOMAIN:CODOMAIN.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import NotSplitError, characters, validate_algebra
from .dtcat import (TriadMorphism, _is_discrete, algebra_component_uniqueness,
                    check_morphism, compose, constant_morphism,
                    differential_agreement_on_image, fullness_check,
                    verify_pullback_forced)
from .errors import DimensionMismatchError, TriadicaError
from .exactla import Matrix
from .finspace import check_topology
from .kaehler import kaehler_module, kaehler_presheaf
from .report import Finding, Report
from .sheaf import (PresheafMorphism, check_sheaf_condition,
                    function_presheaf, pushforward, sheafify,
                    validate_algebra_presheaf)
from .triad import pushforward_triad, validate_triad
from .workspace import (ParseError, UnresolvedReference, dump_workspace,
                        load_workspace, map_to_json, matrix_to_json,
                        module_sections_to_json, morphism_to_json,
                        presheaf_to_json, triad_to_json)

COMMANDS = ("validate", "kaehler", "sheafify", "pushforward",
            "check-morphism", "compose", "constant-morphism", "uniqueness",
            "recover-map", "fullness", "spectrum")


class UsageError(TriadicaError):
    """Ill-formed request: wrong target shape or an unknown name."""


def _split_target(target: str, parts: int, shape: str) -> list[str]:
    bits = target.split(":")
    if len(bits) != parts:
        raise UsageError(f"target {target!r} must look like {shape}")
    return bits


def _get(doc, name: str, section: str):
    table = getattr(doc, section)
    if name in table:
        return table[name]
    actual = doc.section_of(name)
    if actual is None:
        raise UsageError(f"undefined target {name!r}")
    raise UsageError(f"target {name!r} is a {actual[:-1]}, "
                     f"expected a {section[:-1]}")


def _guarded(operation: str, label: str, thunk):
    """Run one target; library failures become findings, not tracebacks."""
    try:
        return thunk()
    except TriadicaError as exc:
        return Report(operation, (Finding("error", label, str(exc), None),)), {}


def _with_findings(rep: Report, extra) -> Report:
    return Report(rep.operation, rep.findings + tuple(extra), rep.exploratory)


def _sheaf_status(layers) -> list[Finding]:
    out = []
    for label, layer in layers:
        cert = check_sheaf_condition(layer)
        if cert.is_sheaf:
            out.append(Finding("info", label, "sheaf condition holds", None))
        else:
            out.append(Finding(
                "info", label,
                f"sheaf condition fails ({len(cert.witnesses)} witnesses)",
                None))
    return out


# ---------------------------------------------------------------------------
# command handlers: (doc, args) -> [(target label, Report, derived dict)]


def _cmd_validate(doc, args):
    handled = ("spaces", "algebras", "presheaves", "triads")
    targets = args.target or sorted(
        name for s in handled for name in getattr(doc, s))
    rows = []
    for name in targets:
        section = doc.section_of(name)
        if section is None:
            raise UsageError(f"undefined target {name!r}")
        if section not in handled:
            raise UsageError(f"validate does not handle {section}; "
                             f"use check-morphism for morphisms")
        obj = getattr(doc, section)[name]

        def work(section=section, obj=obj):
            if section == "spaces":
                return check_topology(obj), {}
            if section == "algebras":
                return validate_algebra(obj), {}
            if section == "presheaves":
                rep = validate_algebra_presheaf(obj)
                return _with_findings(
                    rep, _sheaf_status([("sections", obj)])), {}
            rep = validate_triad(obj, deep=True)
            layers = [("algebra layer", obj.algebras),
                      ("module layer", obj.modules)]
            return _with_findings(rep, _sheaf_status(layers)), {}

        rep, derived = _guarded("validate", name, work)
        rows.append((name, rep, derived))
    return rows


def _cmd_kaehler(doc, args):
    targets = args.target or sorted(set(doc.algebras) | set(doc.presheaves))
    rows = []
    for name in targets:
        section = doc.section_of(name)
        if section == "algebras":
            a = doc.algebras[name]

            def work(a=a):
                k = kaehler_module(a)
                findings = (
                    Finding("info", "ideal",
                            f"multiplication kernel has dimension {k.ideal.dim}",
                            None),
                    Finding("info", "module",
                            f"module of differentials has dimension {k.module.dim}",
                            None))
                derived = {"module": module_sections_to_json(k.module),
                           "differential": matrix_to_json(k.differential)}
                return Report("kaehler_module", findings), derived

            rep, derived = _guarded("kaehler_module", name, work)
        elif section == "presheaves":
            p = doc.presheaves[name]

            def work(p=p):
                res = kaehler_presheaf(p)
                rep = validate_triad(res.presheaf_triad, deep=True)
                dims = [Finding("info", f"open {u}",
                                f"module dimension {m.dim}", None)
                        for u, m in enumerate(res.presheaf_triad.modules.sections)]
                derived = {"presheaf_triad": triad_to_json(res.presheaf_triad),
                           "sheaf_triad": triad_to_json(res.sheaf_triad)}
                return _with_findings(rep, dims), derived

            rep, derived = _guarded("kaehler_presheaf", name, work)
        elif section is None:
            raise UsageError(f"undefined target {name!r}")
        else:
            raise UsageError(f"kaehler expects an algebra or a presheaf, "
                             f"{name!r} is a {section[:-1]}")
        rows.append((name, rep, derived))
    return rows


def _cmd_sheafify(doc, args):
    targets = args.target or sorted(doc.presheaves)
    rows = []
    for name in targets:
        p = _get(doc, name, "presheaves")

        def work(p=p):
            before = check_sheaf_condition(p)
            res = sheafify(p)
            after = check_sheaf_condition(res.presheaf)
            findings = [
                Finding("info", "input",
                        "sheaf condition holds" if before.is_sheaf else
                        f"sheaf condition fails ({len(before.witnesses)} "
                        f"witnesses)", None),
                Finding("info" if after.is_sheaf else "error", "result",
                        "sheaf condition holds" if after.is_sheaf else
                        "sheafification did not produce a sheaf", None)]
            derived = {
                "sheaf": presheaf_to_json(res.presheaf),
                "canonical_components": [matrix_to_json(c)
                                         for c in res.canonical.components]}
            return Report("sheafify", tuple(findings)), derived

        rep, derived = _guarded("sheafify", name, work)
        rows.append((name, rep, derived))
    return rows


def _cmd_pushforward(doc, args):
    targets = _require_targets(args, "MAP:TRIAD")
    rows = []
    for target in targets:
        map_name, triad_name = _split_target(target, 2, "MAP:TRIAD")
        f = _get(doc, map_name, "maps")
        t = _get(doc, triad_name, "triads")

        def work(f=f, t=t):
            out = pushforward_triad(f, t)
            return validate_triad(out, deep=True), {"triad": triad_to_json(out)}

        rep, derived = _guarded("pushforward_triad", target, work)
        rows.append((target, rep, derived))
    return rows


def _cmd_check_morphism(doc, args):
    targets = args.target or sorted(doc.morphisms)
    rows = []
    for name in targets:
        m = _get(doc, name, "morphisms")
        rep, derived = _guarded("check_morphism", name,
                                lambda m=m: (check_morphism(m), {}))
        rows.append((name, rep, derived))
    return rows


def _cmd_compose(doc, args):
    targets = _require_targets(args, "OUTER:INNER")
    rows = []
    for target in targets:
        outer_name, inner_name = _split_target(target, 2, "OUTER:INNER")
        outer = _get(doc, outer_name, "morphisms")
        inner = _get(doc, inner_name, "morphisms")

        def work(outer=outer, inner=inner):
            out = compose(outer, inner)
            return check_morphism(out), {"morphism": morphism_to_json(out)}

        rep, derived = _guarded("compose", target, work)
        rows.append((target, rep, derived))
    return rows


def _cmd_constant_morphism(doc, args):
    targets = _require_targets(args, "SOURCE:TARGET:POINT")
    rows = []
    for target in targets:
        src_name, tgt_name, point = _split_target(target, 3,
                                                  "SOURCE:TARGET:POINT")
        source = _get(doc, src_name, "triads")
        tgt = _get(doc, tgt_name, "triads")
        try:
            c = int(point)
        except ValueError:
            raise UsageError(f"point {point!r} is not an integer") from None

        def work(source=source, tgt=tgt, c=c):
            out = constant_morphism(source, tgt, c)
            return check_morphism(out), {"morphism": morphism_to_json(out)}

        rep, derived = _guarded("constant_morphism", target, work)
        rows.append((target, rep, derived))
    return rows


def _cmd_uniqueness(doc, args):
    targets = _require_targets(args, "FIRST:SECOND")
    rows = []
    for target in targets:
        first_name, second_name = _split_target(target, 2, "FIRST:SECOND")
        m1 = _get(doc, first_name, "morphisms")
        m2 = _get(doc, second_name, "morphisms")

        def work(m1=m1, m2=m2):
            same_algebra = m1.algebra_components == m2.algebra_components
            same_module = m1.module_components == m2.module_components
            if same_algebra and not same_module:
                return differential_agreement_on_image(m1, m2), {}
            if same_module and not same_algebra:
                return algebra_component_uniqueness(m1, m2), {}
            if same_algebra and same_module:
                findings = (Finding("info", "components",
                                    "the morphisms coincide in both layers",
                                    None),)
                return Report("uniqueness", findings), {}
            findings = (Finding(
                "error", "components",
                "the morphisms differ in both layers; no uniqueness "
                "hypothesis applies", None),)
            return Report("uniqueness", findings), {}

        rep, derived = _guarded("uniqueness", target, work)
        rows.append((target, rep, derived))
    return rows


def _cmd_recover_map(doc, args):
    targets = args.target or sorted(doc.morphisms)
    rows = []
    for name in targets:
        m = _get(doc, name, "morphisms")
        f = m.map
        if not (_is_discrete(f.domain) and _is_discrete(f.codomain)):
            if not args.exploratory:
                raise UsageError(
                    f"target {name!r} lives over non-discrete spaces; "
                    f"rerun with --exploratory to inspect it anyway")

        def work(m=m, f=f):
            h = PresheafMorphism(function_presheaf(f.codomain),
                                 pushforward(f, function_presheaf(f.domain)),
                                 m.algebra_components)
            rep = verify_pullback_forced(f, h)
            return rep, {"map": map_to_json(f)}

        rep, derived = _guarded("verify_pullback_forced", name, work)
        rows.append((name, rep, derived))
    return rows


def _cmd_fullness(doc, args):
    targets = _require_targets(args, "DOMAIN:CODOMAIN")
    rows = []
    for target in targets:
        x_name, y_name = _split_target(target, 2, "DOMAIN:CODOMAIN")
        x = _get(doc, x_name, "spaces")
        y = _get(doc, y_name, "spaces")

        def work(x=x, y=y):
            res = fullness_check(x, y, bound=args.bound)
            per_map = {",".join(str(v) for v in values): count
                       for values, count in res.per_map}
            return res.report, {"total": res.total, "per_map": per_map}

        rep, derived = _guarded("fullness_check", target, work)
        rows.append((target, rep, derived))
    return rows


def _cmd_spectrum(doc, args):
    targets = args.target or sorted(doc.algebras)
    rows = []
    for name in targets:
        a = _get(doc, name, "algebras")

        def work(a=a):
            try:
                chars = characters(a)
            except NotSplitError as exc:
                return Report("spectrum",
                              (Finding("error", "characters", str(exc),
                                       None),)), {}
            findings = (Finding("info", "characters",
                                f"{len(chars)} rational characters",
                                [[str(x) for x in c.functional]
                                 for c in chars]),)
            derived = {"characters": [[str(x) for x in c.functional]
                                      for c in chars]}
            return Report("spectrum", findings), derived

        rep, derived = _guarded("spectrum", name, work)
        rows.append((name, rep, derived))
    return rows


def _require_targets(args, shape: str) -> list[str]:
    if not args.target:
        raise UsageError(f"this command needs explicit --target {shape}")
    return args.target


HANDLERS = {
    "validate": _cmd_validate,
    "kaehler": _cmd_kaehler,
    "sheafify": _cmd_sheafify,
    "pushforward": _cmd_pushforward,
    "check-morphism": _cmd_check_morphism,
    "compose": _cmd_compose,
    "constant-morphism": _cmd_constant_morphism,
    "uniqueness": _cmd_uniqueness,
    "recover-map": _cmd_recover_map,
    "fullness": _cmd_fullness,
    "spectrum": _cmd_spectrum,
}


# ---------------------------------------------------------------------------
# rendering


def _jsonify(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Matrix):
        return matrix_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonify(v) for v in value), key=repr)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return str(value)


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
                               "witness": _jsonify(f.witness)}
                              for f in rep.findings]}
        if derived:
            entry["derived_artifacts"] = _jsonify(derived)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadica",
        description="exact checks on differential structures over finite "
                    "topological spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--workspace", default="workspace.json",
                       help="workspace file (default: workspace.json)")
        p.add_argument("--target", action="append", metavar="NAME",
                       help="named target; repeatable; ':'-joined for "
                            "commands taking pairs")
        p.add_argument("--bound", type=int, default=64,
                       help="enumeration budget (default: 64)")
        p.add_argument("--exploratory", action="store_true",
                       help="allow operations whose result is only "
                            "exploratory on the given input")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="mode", action="store_const",
                         const="json", default="json")
        fmt.add_argument("--human", dest="mode", action="store_const",
                         const="human")
    return parser


def run(doc, args) -> tuple[int, str]:
    """Execute one parsed command against a loaded workspace."""
    rows = HANDLERS[args.command](doc, args)
    rows.sort(key=lambda row: row[0])
    text = (render_human if args.mode == "human" else render_json)(
        args.command, rows)
    code = 1 if any(rep.status == "fail" for _, rep, _ in rows) else 0
    return code, text


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
