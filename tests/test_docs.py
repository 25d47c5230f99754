"""The README's API list against what the package exports, the exports
against the code that reaches them, the sources against imports they never
read, and the bench tracer's targets against the package."""

import ast
import importlib.util
import re
from pathlib import Path

import dicholab
from dicholab import characterize

from helpers import planted

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_api_section_names_exactly_the_exports():
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([^`]+)`", section))
    # "`Owner` (its `a`, `b` and `c` ...": attributes of an exported class
    owned = [(owner, *re.findall(r"`(\w+)`", names)) for owner, names in re.findall(
        r"`(\w+)` \(its\s+((?:`\w+`,\s+)*`\w+`\s+and\s+`\w+`)", section)]
    attrs = {a for _, *pair in owned for a in pair}
    assert attrs == {"norms", "ranges", "kernels", "stable_bases", "unstable_bases"}
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1), cond=2.0, seed=1)
    res = characterize(model.system, rate, nu)
    real = {"ProjectionFamily": res.projections, "SplittingReport": res.splitting}
    assert {owner for owner, *_ in owned} == set(real)
    for owner, *pair in owned:
        for attr in pair:
            assert hasattr(real[owner], attr), (owner, attr)
    exported = set(dicholab.__all__) - {"__version__"}
    assert exported - named == set()
    assert named - exported - attrs - {"dicholab"} == set()


#: exports no library, script, bench or acceptance code reaches, with why they stay
UNREACHED_EXPORTS = {
    "system_to_json": "the documented writer of the files system.path reads",
}


def loaded_names(path):
    """Names and attributes a module loads, each top-level definition's own
    name left out of its body (a recursive call is no caller)."""
    loaded = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                 if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
        loaded |= names - {getattr(stmt, "name", None)}
    return loaded


def test_every_export_has_a_caller_beyond_the_unit_tests():
    # a public name only the unit tests reach is a test-only oracle or wrapper;
    # strings (the README, error messages) do not count as reaching it
    paths = [p for p in sorted((ROOT / "src" / "dicholab").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    reached = set().union(*map(loaded_names, paths))
    exported = set(dicholab.__all__) - {"__version__"}
    assert exported - reached == set(UNREACHED_EXPORTS)


def unread_imports(path):
    """(line, name) of each top-level import the module never reads; a name
    the module lists in ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for d in ("src/dicholab", "tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 20
    unread = {str(p.relative_to(ROOT)): names for p in paths if (names := unread_imports(p))}
    assert unread == {}


def test_every_bench_span_target_resolves():
    # the tracer looks each target up by name; a renamed one would only
    # show as a crashed bench run
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(m, f) for m, names in spans.SPANS.items() for f in names]
    targets += list(spans.MATRIX_COUNTERS)
    assert len(targets) > 15
    missing = [(m, f) for m, f in targets
               if not callable(getattr(importlib.import_module(f"dicholab.{m}"), f, None))]
    assert missing == []
