"""Shared fixtures.

The `criterion` fixture collects named pass/fail verdicts from the
acceptance tests; `pytest_terminal_summary` replays them as one line per
criterion at the end of the run, each followed by the wall time of the
test that recorded it, so the gate's outcome and cost are readable
without scrolling through tracebacks.
"""

import pytest

_CRITERIA = []  # (test node id, name, ok, detail)
_DURATIONS = {}  # test node id -> wall time of its call phase, seconds


@pytest.fixture
def criterion(request):
    """Record a named acceptance verdict; returns the boolean unchanged."""

    def record(name: str, ok: bool, detail: str) -> bool:
        _CRITERIA.append((request.node.nodeid, name, bool(ok), detail))
        return bool(ok)

    return record


def pytest_runtest_logreport(report):
    if report.when == "call":
        _DURATIONS[report.nodeid] = report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for nodeid, name, ok, detail in _CRITERIA:
        terminalreporter.write_line(
            f"{'PASS' if ok else 'FAIL'} {name}: {detail} "
            f"[{_DURATIONS.get(nodeid, float('nan')):.1f} s]"
        )
