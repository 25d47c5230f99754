"""The README's API list against what the package exports."""

import re
from pathlib import Path

import dicholab
from dicholab import characterize

from helpers import planted

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_section_names_exactly_the_exports():
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([^`]+)`", section))
    # "`Owner` (its `a` and `b` ...": attributes of an exported class
    owned = re.findall(r"`(\w+)` \(its\s+`(\w+)`\s+and\s+`(\w+)`", section)
    attrs = {a for _, *pair in owned for a in pair}
    assert attrs == {"ranges", "kernels", "stable_bases", "unstable_bases"}
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
