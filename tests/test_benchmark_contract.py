"""Every workload that BENCHMARK.json names runs one operation and passes its
own check, so a change that breaks a library name or behaviour the benchmark
relies on fails here rather than only when the benchmark runs.  The workloads
are read from perfbench/ as they are; nothing there is changed."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads.py imports reference.py by name
    import workloads

    return workloads


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_operation_passes_its_check(workloads, name):
    work = workloads.WORKLOADS[name](1)
    inp = work.take(0)
    assert work.check(inp, work.run(inp)) == []
