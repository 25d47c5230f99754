import hypothesis

import helpers

hypothesis.settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
# scripts/mutants.py needs only a failure: no example database, no shrinking
hypothesis.settings.register_profile(
    "mutants",
    hypothesis.settings.get_profile("suite"),
    database=None,
    phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink],
)
hypothesis.settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
