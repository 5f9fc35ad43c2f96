"""Every script in demos/ runs to completion against the package in src/,
and every public function is reached from the package, a demo or a
benchmark workload."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import waveq

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_every_public_function_is_named_outside_its_own_def():
    """A function in waveq.__all__ that only tests call is unreached API.  It
    must be named in a src/waveq module other than __init__.py (outside its own
    def), in a demo script or in a benchmark workload."""
    package = Path(waveq.__file__).resolve().parent
    texts = {p: p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"}
    users = "\n".join(p.read_text() for p in [*DEMOS, ROOT / "bench" / "workloads.py"])
    unreached = []
    for name in waveq.__all__:
        fn = getattr(waveq, name)
        if not inspect.isfunction(fn):
            continue
        lines, start = inspect.getsourcelines(fn)
        home = Path(inspect.getsourcefile(fn)).resolve()
        own = texts[home].splitlines(keepends=True)
        del own[start - 1 : start - 1 + len(lines)]
        others = [text for path, text in texts.items() if path != home]
        if not re.search(rf"\b{name}\b", "\n".join([*others, "".join(own), users])):
            unreached.append(name)
    assert unreached == []
