"""The mutant table of scripts/mutants.py against the sources it edits; the
mutants themselves are not run here (``python scripts/mutants.py`` does)."""

import importlib.util
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


def test_every_named_test_function_exists():
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, func = node.split("::")
            assert f"def {func.split('[')[0]}(" in (ROOT / path).read_text(), (m.name, node)
