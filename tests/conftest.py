"""Shared test wiring: acceptance criteria get one summary line each."""

import re

CRITERIA_TITLES = {
    1: "mass-point pre-log ceiling 0.5 strictly below zero-set measure 0.75",
    2: "phase-noise slope 1/2 and bound ordering",
    3: "Szego log-det rate convergence at n=512 for the W=0.25 band",
    4: "monotone finite-snr pre-log trajectory toward 0.8 for W=0.1 Rayleigh",
    5: "lower bound never exceeds coherent upper bound on random models",
    6: "sample-path laws match closed forms at n=1e5",
    7: "oracle equivalence: eigenvalues, Levinson log-det rate, quadrature, Monte Carlo tails",
    8: "MISO pre-log equals the best single antenna",
}

_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance.*test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        _results[num] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _results[num] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA_TITLES):
        outcome = _results.get(num)
        if outcome is None:
            word = "NOT RUN"
        elif outcome == "passed":
            word = "PASS"
        elif outcome == "failed":
            word = "FAIL"
        else:
            word = outcome.upper()
        terminalreporter.write_line(
            f"criterion {num} {word}: {CRITERIA_TITLES[num]}"
        )
