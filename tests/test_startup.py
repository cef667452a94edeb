"""Start-up stays light: importing the CLI loads neither ``dataclasses`` and what it pulls in,
nor ``importlib.resources`` (with ``pathlib``, ``tempfile`` and ``shutil``), nor ``argparse``,
``configparser`` and ``gettext``."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
NOT_AT_START_UP = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources", "argparse", "configparser", "gettext",
)


def test_cli_import_loads_no_introspection_module():
    # -S skips site-packages start-up hooks, which may import modules of their own
    script = f"import json, sys, multinet.cli; print(json.dumps([m for m in {NOT_AT_START_UP!r} if m in sys.modules]))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
