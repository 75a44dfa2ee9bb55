"""Importing the command line loads no module it does not use.

Every command runs in a fresh interpreter, so whatever `import
triadica.cli` pulls in is paid on each run.  `dataclasses` imports
`inspect`, and compiles methods for every class it decorates;
`triadica.record` does the same job without either.
"""

import subprocess
import sys

from test_cli import src_env

UNWANTED = ("dataclasses", "inspect")


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = ("import sys\n"
            "import triadica.cli\n"
            f"print(sorted(m for m in {UNWANTED!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
