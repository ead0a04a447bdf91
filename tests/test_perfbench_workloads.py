"""Every benchmark workload's body runs and passes its own output checks.

perfbench/workloads.py holds the benchmark's inputs, timed bodies and
output checks; its own runner starts fresh processes and is not part of
this suite. Running each body once here, in-process and on seed 1, makes a
change that breaks a benchmark output fail with the other tests. The module
is compiled from its source text, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    mod = types.ModuleType("workloads")
    mod.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         mod.__dict__)
    return mod


_WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_workload_outputs_pass_their_checks(name):
    setup, run, check = _WORKLOADS[name]
    inputs = setup(1)
    checks = check(inputs, run(inputs))
    assert checks
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    assert failed == []
