"""The --help synopsis; only -h and --help run this layer."""

METAVARS = {str: " FILE", list: " TARGET", int: " N", bool: ""}
HELP_TAIL = ("\n  --json, --human   report as JSON (default) or as text"
             "\n  -h, --help        print this synopsis\n"
             "\nA long option may be cut to any unique prefix: --work FILE, --b 9.\n")


def help_text(table: dict, common: tuple) -> str:
    """The synopsis of every command and option, read off `table`, the
    command line's COMMAND_TABLE, and `common`, the options every command
    reads."""
    lines = []
    for name, c in table.items():
        usage = (f"[{f}{f' {c.shape} ...' if kind is list else METAVARS[kind]}]"
                 for f, kind, _, _ in common + c.flags)
        lines.append(f"triadica {name:17} {' '.join(usage)} [--json|--human]")
    options = common + sum((c.flags for c in table.values()), ())
    lines += [""] + [f"  {f + METAVARS[kind]:17} {text}"
                     for f, kind, _, text in options]
    return "\n".join(lines) + HELP_TAIL
