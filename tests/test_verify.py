"""Claim runner: report shape, failure reporting, id hygiene."""

import ast
from pathlib import Path

import pytest

from spexlab import CLAIM_IDS, asymptotics, run_claim, verify
from spexlab.verify import CLAIM_SPECS, first_failure


def test_claim_ids_match_specs():
    assert CLAIM_IDS == tuple(CLAIM_SPECS)
    assert CLAIM_IDS == ("f1", "cx1", "cx2", "table", "tree-lemma",
                         "edge-add", "transfer-shift", "spectral-turan",
                         "mantel")
    for cid, spec in CLAIM_SPECS.items():
        assert spec.id == cid
        assert spec.expected
        assert callable(spec.run)


def test_table_claim_passes():
    rep = run_claim("table")
    assert rep["ok"]
    assert rep["claim"] == "table"
    assert rep["elapsed"] >= 0
    for a in rep["assertions"]:
        assert set(a) == {"name", "ok", "detail"}
        assert a["ok"]


def test_f1_claim_passes():
    rep = run_claim("f1")
    assert rep["ok"]
    assert len(rep["assertions"]) >= 4


def test_cx2_claim_at_thirteen():
    rep = run_claim("cx2", {"p": 13})
    assert rep["ok"]


def test_transfer_shift_claim_passes():
    rep = run_claim("transfer-shift")
    assert rep["ok"]


def test_underscore_alias():
    rep = run_claim("edge_add")
    assert rep["claim"] == "edge-add"
    assert rep["ok"]


def test_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("nope")


def test_param_not_taken_names_claim_key_and_keys_taken():
    with pytest.raises(ValueError, match="claim edge-add .* q; it takes r, b, a"):
        run_claim("edge-add", {"r": 3, "q": 5})


def test_exception_becomes_failed_assertion():
    rep = run_claim("cx2", {"p": 6})
    assert not rep["ok"]
    last = rep["assertions"][-1]
    assert last["name"] == "cx2 ran to completion"
    assert not last["ok"]
    assert "p = 6" in last["detail"]


def test_first_failure():
    good = run_claim("table")
    bad = run_claim("cx2", {"p": 6})
    assert first_failure([good]) is None
    assert first_failure([good, bad]) == "cx2: cx2 ran to completion"
    assert first_failure([bad, good]) == "cx2: cx2 ran to completion"


def test_cx1_sign_does_not_read_the_float_gaps(monkeypatch):
    def wrong_sign(name, params, ns):
        return asymptotics.FitResult(tuple((n, 1e-3) for n in ns),
                                     -1.0, 0.0, -1.0)

    monkeypatch.setattr(asymptotics, "experiment", wrong_sign)
    rep = run_claim("cx1")
    signs = [a for a in rep["assertions"]
             if a["name"].startswith("lambda(H) < lambda(G)")]
    assert len(signs) == 4
    for a in signs:
        assert a["ok"], a
        assert a["detail"].startswith("gap 1.000e-03; lambda(H) in [")
        assert "lambda(G) in [" in a["detail"]
        assert a["detail"].endswith(")")


def test_verify_imports_only_canonical_form_from_canon():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    from_canon = [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "canon"
                  for alias in node.names]
    assert from_canon == ["canonical_form"]
