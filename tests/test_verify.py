"""Claim runner: report shape, failure reporting, id hygiene."""

import ast
import re
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


def test_non_integer_param_is_bad_input():
    with pytest.raises(ValueError, match="claim edge-add cannot take b=2.5"):
        run_claim("edge-add", {"b": 2.5})


@pytest.fixture
def cx2_raises(monkeypatch):
    """Make the cx2 claim body raise once its inputs are built."""
    def boom(*args):
        raise ValueError("quotient check blew up")

    monkeypatch.setattr(verify, "is_equitable", boom)


def test_exception_becomes_failed_assertion(cx2_raises):
    # even a ValueError, once the inputs are built
    rep = run_claim("cx2")
    assert not rep["ok"]
    last = rep["assertions"][-1]
    assert last["name"] == "cx2 ran to completion"
    assert not last["ok"]
    assert "quotient check blew up" in last["detail"]


@pytest.mark.parametrize("claim, params, named", [
    ("cx2", {"p": 6}, "p = 6"),
    ("edge-add", {"b": -1}, "b = -1"),
    ("transfer-shift", {"k": 1}, "k = 1"),
    ("cx1", {"r": 2}, "r must be at least 3"),
])
def test_out_of_range_param_is_bad_input(claim, params, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        run_claim(claim, params)


def test_first_failure(cx2_raises):
    good = run_claim("table")
    bad = run_claim("cx2")
    assert first_failure([good]) is None
    assert first_failure([good, bad]) == "cx2: cx2 ran to completion"
    assert first_failure([bad, good]) == "cx2: cx2 ran to completion"


def test_cx1_sign_does_not_read_the_float_gaps(monkeypatch):
    def wrong_sign(pairs, predicted):
        return asymptotics.FitResult(tuple((n, 1e-3) for n, _, _ in pairs),
                                     -1.0, 0.0, -1.0)

    monkeypatch.setattr(asymptotics, "fit_pairs", wrong_sign)
    rep = run_claim("cx1")
    signs = [a for a in rep["assertions"]
             if a["name"].startswith("lambda(H) < lambda(G)")]
    assert len(signs) == 4
    for a in signs:
        assert a["ok"], a
        assert a["detail"].startswith("gap 1.000e-03; lambda(H) in [")
        assert "lambda(G) in [" in a["detail"]
        assert a["detail"].endswith(")")


def test_cx1_fit_reuses_the_claim_pairs(monkeypatch):
    # the fit reads the claim's records; each size's graphs are built once
    calls, built = [], []
    real = asymptotics.cx1_records
    monkeypatch.setattr(asymptotics, "cx1_records",
                        lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(verify, "cx1_records",
                        lambda *a: built.append(a[2]) or real(*a))
    rep = run_claim("cx1")
    assert calls == []
    assert built == [55, 109, 217, 433]
    assert any(a["name"].startswith("extrapolated") and a["ok"]
               for a in rep["assertions"])


def test_cx1_sizes_follow_k():
    # the cx1_gap experiment's default sizes honour any k, not only k | 18
    rep = run_claim("cx1", {"k": 4, "m": 4})
    sizes = {int(m) for a in rep["assertions"]
             for m in re.findall(r"at n = (\d+)", a["name"])}
    assert sizes == {61, 121, 241, 481}


def test_cx1_freeness_failure_names_its_member():
    rep = run_claim("cx1")
    held = {a["name"]: a["detail"] for a in rep["assertions"]
            if "avoids" in a["name"] and not a["ok"]}
    assert held["G avoids the family at n = 55"] == (
        "holds member 4 of 22 (17 vertices, 101 edges): "
        "PsaCF~}~f{^o~~~~^~f~w~~?")
    assert all(d.startswith("holds member ") for d in held.values())


def test_verify_imports_only_canonical_form_from_canon():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    from_canon = [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "canon"
                  for alias in node.names]
    assert from_canon == ["canonical_form"]
