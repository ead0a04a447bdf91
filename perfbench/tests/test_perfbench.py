"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_is_repeatable_and_transparent(workload, tmp_path):
    units = {m["name"]: m["unit"] for m in run.SPEC["per_layer"]}
    plain = run.run_rep(workload, 5, None, timeout=120)
    counts = []
    for i in range(2):
        rep = run.run_rep(workload, 5, tmp_path / f"{i}.npz", timeout=120)
        assert all(ok for _, ok, _ in rep["checks"]), rep["checks"]
        # outputs byte-identical to the untraced repetition
        assert json.dumps(rep["outputs"], sort_keys=True) == \
            json.dumps(plain["outputs"], sort_keys=True)
        layers = spans.layer_metrics(tmp_path / f"{i}.npz")
        counts.append({k: v for k, v in layers.items() if units[k] != "s"})
    assert counts[0] == counts[1]


def test_every_listed_layer_metric_is_computed(tmp_path):
    tracer = spans.Tracer(workloads.MODULES)
    tracer.install()
    tracer.restore()
    tracer.save(tmp_path / "empty.npz")
    computed = set(spans.layer_metrics(tmp_path / "empty.npz"))
    listed = {m["name"] for m in run.SPEC["per_layer"]}
    assert listed == computed | {"trace.overhead_frac"}


def test_restore_puts_back_every_attribute():
    mods = workloads.MODULES
    before = {(m, a): getattr(mods[m], a) for m, a, _ in spans.SITES}
    builders = dict(mods["asymptotics"]._BUILDERS)
    tracer = spans.Tracer(mods)
    tracer.install()
    assert all(getattr(mods[m], a) is not f for (m, a), f in before.items())
    assert mods["patterns"]._cform.__wrapped__ is before[("patterns", "_cform")]
    assert tracer.restore() == []
    assert all(getattr(mods[m], a) is f for (m, a), f in before.items())
    assert mods["asymptotics"]._BUILDERS == builders


def test_self_time_subtracts_direct_children(tmp_path):
    # a (0..10) holds b (1..4) and c (5..9); c holds b (6..7)
    path = tmp_path / "s.npz"
    meta = {"names": ["oracle.spex_oracle", "oracle._canonical", "oracle.is_free"],
            "layers": ["oracle", "canon", "patterns"],
            "counters": {"oracle.children": 0, "spectral.iterations": 0,
                         "canon.lru_hits": 3, "canon.lru_misses": 1,
                         "patterns.cache_entries": 0}}
    np.savez(path, name=np.array([0, 1, 2, 1], dtype=np.int32),
             parent=np.array([-1, 0, 0, 2], dtype=np.int32),
             start=np.array([0.0, 1.0, 5.0, 6.0]),
             end=np.array([10.0, 4.0, 9.0, 7.0]),
             meta=np.array(json.dumps(meta)))
    m = spans.layer_metrics(path)
    assert m["oracle.self_s"] == 3.0
    assert m["patterns.self_s"] == 3.0
    assert m["canon.self_s"] == 4.0
    assert m["canon.calls"] == 2 + 1
    assert m["canon.lru_hit_ratio"] == 0.75


def test_census_shards_agree_with_one_job():
    # the only coverage of the sharded enumeration path; untimed
    inputs = workloads.census_setup(0)
    one = workloads.census_run(inputs, jobs=1)
    two = workloads.census_run(inputs, jobs=2)
    for key in ("spex", "ex"):
        assert two[key]["extremal_set"] == one[key]["extremal_set"]
        assert two[key]["value"] == one[key]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "packing", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
