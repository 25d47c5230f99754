"""The README's API list against what the package exports, and the
sources against imports they never read."""

import ast
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
