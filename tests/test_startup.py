"""What a fresh `bstar` process imports: each command loads the modules it
runs, and start-up loads neither `dataclasses` (with `inspect`) nor
`fractions` (with `decimal`), nor `typing`.  A `check` that projects top
cycles over Q loads no `fractions` either: its kernel vectors are
integral."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

NEVER_AT_START = {"dataclasses", "inspect", "fractions", "decimal", "typing",
                  "bstar.constructions", "bstar.theorems", "bstar.vectors",
                  "bstar.rigidity"}

# Runs one command in process and reports the modules loaded by its end.
_REPORT = """
import json, sys
from bstar.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def _loaded(*argv, cwd):
    # -S: no site, so nothing but the interpreter's own modules is loaded
    # first (CI runs the battery this way, with no site-packages)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", _REPORT, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@pytest.mark.parametrize("argv", [(), ("check", "square.json")])
def test_start_up_loads_only_what_check_runs(tmp_path, argv):
    (tmp_path / "square.json").write_text('{"facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}')
    loaded = _loaded(*argv, cwd=tmp_path)
    assert {"bstar.cli", "bstar.complexes", "bstar.homology", "bstar.linalg",
            "bstar.properties"} <= loaded
    assert loaded & NEVER_AT_START == set()


def test_a_named_input_adds_only_constructions(tmp_path):
    loaded = _loaded("check", "named:cycle:5", cwd=tmp_path)
    assert loaded & NEVER_AT_START == {"bstar.constructions"}


@pytest.mark.parametrize("target", ["named:rp2_6", "named:example_2_10_iii"])
def test_a_projection_over_q_loads_no_fractions(tmp_path, target):
    # both are Buchsbaum and not closed orientable manifolds over Q, so
    # Buchsbaum* runs the projection sweep there
    loaded = _loaded("check", target, cwd=tmp_path)
    assert loaded & {"fractions", "decimal"} == set()
