import os
import re
import sys

# a stray src/bunpic/__pycache__ changes how fast the package imports, which
# the benchmark times, so no test run writes bytecode; the subprocess tests
# inherit the setting through the environment
sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            m = re.search(r"test_criterion_(\d+)_(\w+)", getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            if key != "passed":
                outcomes[num] = "FAIL"
            else:
                outcomes.setdefault(num, "PASS")
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(outcomes):
            terminalreporter.write_line(f"[criterion {num:2d}] {outcomes[num]}")
