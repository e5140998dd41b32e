"""Shared pytest hooks: per-criterion summary lines for the acceptance suite, each followed by the
measurements its test recorded with ``record_property`` (how close a statistical gate is)."""

import re

ACCEPTANCE_CRITERIA = {
    1: "u-statistic estimator is unbiased on calibrated data",
    2: "plug-in estimator is non-negatively biased above the u-statistic",
    3: "estimators match brute-force double-loop recomputation",
    4: "analytic kernel expectations match Monte-Carlo oracles",
    5: "mixture transport distance matches polytope vertex enumeration",
    6: "block and bootstrap tests hold the significance level at n=1024",
    7: "tests reject the uncalibrated model; small blocks lose power",
    8: "CME test holds its level at n=1024 but converges slowly",
    9: "OLS scenario: rejected by the bootstrap test, near-diagonal quantiles",
    10: "h-evaluation counts match the advertised cost model exactly",
    11: "Friedman-1 generator matches quasi-random quadrature oracle",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes, measured = {}, {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _NODE_RE.search(getattr(report, "nodeid", ""))
            if match:
                outcomes[int(match.group(1))] = status
                measured[int(match.group(1))] = getattr(report, "user_properties", [])
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_CRITERIA):
        status = outcomes.get(number)
        if status is None:
            verdict = "NOT RUN"
        elif status == "passed":
            verdict = "PASS"
        else:
            verdict = "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict:7s} {ACCEPTANCE_CRITERIA[number]}"
        )
        for name, value in measured.get(number, []):
            terminalreporter.write_line(f"{'':22s}{name}: {value}")
