"""The mutant table of scripts/mutants.py against the sources it edits; the
mutants themselves are not run here (``python scripts/mutants.py`` does)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_old_text_occurs_exactly_once_in_src():
    sources = {p: p.read_text() for p in (ROOT / "src").rglob("*.py")}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 4
    for m in mutants.MUTANTS:
        assert (ROOT / "src" / m.path).is_file(), m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name
        assert sources[ROOT / "src" / m.path].count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_every_named_test_collects():
    # a parametrize id that no longer exists fails here, not only a function
    nodes = sorted({node for m in mutants.MUTANTS for node in m.tests})
    assert all(m.tests for m in mutants.MUTANTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", *nodes],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert set(nodes) <= set(run.stdout.splitlines())
