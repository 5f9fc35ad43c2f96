"""Every script in demos/ runs to completion against the package in src/,
and every public function and method is reached from the package, a demo
or a benchmark workload."""

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


PACKAGE = Path(waveq.__file__).resolve().parent
SOURCES = {p: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
USERS = "\n".join(p.read_text() for p in [*DEMOS, ROOT / "bench" / "workloads.py"])


def _named_outside_its_def(pattern: str, fn) -> bool:
    """Whether pattern occurs in a src/waveq module other than __init__.py
    (outside fn's own def), in a demo script or in a benchmark workload."""
    lines, start = inspect.getsourcelines(fn)
    home = Path(inspect.getsourcefile(fn)).resolve()
    own = SOURCES[home].splitlines(keepends=True)
    del own[start - 1 : start - 1 + len(lines)]
    others = [text for path, text in SOURCES.items() if path != home]
    return re.search(pattern, "\n".join([*others, "".join(own), USERS])) is not None


def test_every_public_function_is_named_outside_its_own_def():
    """A function in waveq.__all__ that only tests call is unreached API."""
    unreached = [name for name in waveq.__all__ if inspect.isfunction(fn := getattr(waveq, name))
                 and not _named_outside_its_def(rf"\b{name}\b", fn)]
    assert unreached == []


def test_every_public_method_is_accessed_outside_its_own_def():
    """A public method or property of a waveq.__all__ class, or of a waveq class
    it inherits from, that only tests reach is unreached API.  A use is an
    attribute access `.name`."""
    unreached = set()
    for cls in (getattr(waveq, name) for name in waveq.__all__):
        for klass in inspect.getmro(cls) if inspect.isclass(cls) else ():
            if not klass.__module__.startswith("waveq."):
                continue
            for attr, member in vars(klass).items():
                fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and not _named_outside_its_def(rf"\.{attr}\b", fn)):
                    unreached.add(fn.__qualname__)
    assert sorted(unreached) == []
