"""Command line driver: JSON output, exit codes, parser flags."""

import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spexlab
from spexlab import canonical_form, cx2_package, cycle, encode_graph6, turan
from spexlab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestLambda:
    def test_triangle(self, capsys):
        doc = run_json(capsys, "lambda", "--graph6", "Bw")
        assert doc["lambda"] == pytest.approx(2.0, abs=1e-10)
        assert doc["residual"] <= 1e-10
        assert doc["schema"] == 1

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\nBw\n"))
        doc = run_json(capsys, "lambda")
        assert doc["lambda"] == pytest.approx(2.0, abs=1e-10)

    def test_bad_graph6_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "lambda", "--graph6", "Bw!!")
        assert code == 2
        assert err.startswith("error:")


class TestChromaticAndFree:
    def test_chromatic(self, capsys):
        doc = run_json(capsys, "chromatic", "--graph6", encode_graph6(cycle(5)))
        assert doc["chi"] == 3

    def test_free_check_builtin_clique(self, capsys):
        doc = run_json(capsys, "free-check", "--family", "K3",
                       "--graph6", encode_graph6(turan(8, 2)))
        assert doc["free"] is True
        assert doc["family"] == "K3"

    def test_free_check_family_file(self, capsys, tmp_path):
        fam = tmp_path / "family.g6"
        fam.write_text("Bw\n")
        doc = run_json(capsys, "free-check", "--family", str(fam),
                       "--graph6", encode_graph6(turan(8, 2)))
        assert doc["free"] is True

    def test_free_check_cx1(self, capsys):
        doc = run_json(capsys, "free-check", "--family", "cx1",
                       "--params", "r=3,k=6,m=5",
                       "--graph6", encode_graph6(turan(9, 3)))
        assert doc["free"] is True


class TestConstructQuotientPipeline:
    def test_construct_f1(self, capsys):
        doc = run_json(capsys, "construct", "--name", "f1")
        assert doc["construction"] == "f1"
        assert doc["graphs"][0]["label"] == "F1"
        assert doc["graphs"][0]["edges"] == 22

    def test_cx2_h_quotient_roundtrip(self, capsys):
        doc = run_json(capsys, "construct", "--name", "cx2",
                       "--params", "p=7,m=3")
        h = next(g for g in doc["graphs"] if g["label"] == "H")
        partition = "; ".join(" ".join(str(v) for v in cls)
                              for cls in h["partition"])
        qdoc = run_json(capsys, "quotient", "--graph6", h["graph6"],
                        "--partition", partition)
        assert qdoc["matrix"] == [[0, 2, 0, 7], [1, 0, 0, 7],
                                  [0, 0, 0, 7], [2, 4, 1, 0]]
        assert "char_poly" in qdoc

    def test_construct_star_path(self, capsys):
        doc = run_json(capsys, "construct", "--name", "star-path",
                       "--params", "n=60,r=3,k=5")
        assert [g["label"] for g in doc["graphs"]] == ["G_star", "G_path"]

    def test_construct_needs_params(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--name", "cx2")
        assert code == 2
        assert "error:" in err

    def test_construct_param_not_taken_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--name", "cx2",
                                 "--params", "p=7,m=3,q=9")
        assert code == 2
        assert out == ""
        assert "construction cx2 takes no parameter q; it takes p, m" in err


    def test_construct_repeated_param_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--name", "cx2",
                                 "--params", "p=7,p=13,m=3")
        assert code == 2
        assert out == ""
        assert "parameter p given twice" in err

    def test_quotient_needs_partition(self, capsys):
        # graph6 carries no partition, so there is nothing to default to
        with pytest.raises(SystemExit) as exc:
            main(["quotient", "--graph6", "Bw"])
        assert exc.value.code == 2
        assert "--partition" in capsys.readouterr().err


class TestOracleCommands:
    def test_ex(self, capsys):
        doc = run_json(capsys, "ex", "--n", "5", "--family", "K3")
        assert doc["value"] == 6
        assert doc["extremal_set"] == [
            canonical_form(turan(5, 2)).decode("ascii")]

    def test_spex(self, capsys):
        doc = run_json(capsys, "spex", "--n", "5", "--family", "K3")
        assert doc["extremal_set"] == [
            canonical_form(turan(5, 2)).decode("ascii")]
        assert "certificate" in doc

    def test_restricted_ex(self, capsys):
        doc = run_json(capsys, "restricted-ex", "--n", "14",
                       "--family", "cx2", "--params", "p=7,m=3",
                       "--r", "2", "--max-tree-order", "3")
        pkg = cx2_package(7, 3)
        want = {canonical_form(pkg.h).decode("ascii"),
                canonical_form(pkg.h_prime).decode("ascii")}
        assert set(doc["extremal_set"]) == want
        assert doc["restricted"] is True

    def test_restricted_ex_without_free_graph_prints_null(self, capsys):
        doc = run_json(capsys, "restricted-ex", "--n", "6", "--family", "K3",
                       "--r", "3", "--max-tree-order", "2")
        assert doc["value"] is None
        assert doc["extremal_set"] == []

    @pytest.mark.parametrize("argv, named", [
        (("ex", "--n", "5", "--family", "K3", "--params", "q=9"),
         "family K3 takes no parameter q; it takes none"),
        (("spex", "--n", "5", "--family", "K3", "--params", "q=9"),
         "family K3 takes no parameter q; it takes none"),
        (("restricted-ex", "--n", "14", "--family", "cx2",
          "--params", "p=7,m=3,r=2", "--r", "2", "--max-tree-order", "3"),
         "family cx2 takes no parameter r; it takes p, m"),
        (("free-check", "--family", "cx1", "--params", "r=3,k=6,m=5,p=7",
          "--graph6", "Bw"),
         "family cx1 takes no parameter p; it takes r, k, m"),
    ])
    def test_family_param_not_taken_exits_two(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert named in err

    def test_guardrail_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "ex", "--n", "10", "--family", "K3")
        assert code == 2
        assert "allow_large" in err or "allow-large" in err


@pytest.mark.parametrize("argv, named", [
    (("construct", "--name", "star-path", "--params", "n=abc,r=3,k=5"),
     "construction star-path cannot take n='abc'; it takes integer n, r, k"),
    (("free-check", "--graph6", "Bw", "--family", "cx2",
      "--params", "p=7.0,m=3"),
     "family cx2 cannot take p='7.0'; it takes integer p, m"),
    (("ex", "--n", "5", "--family", "cx2", "--params", "p=7,m=x"),
     "family cx2 cannot take m='x'; it takes integer p, m"),
    (("spex", "--n", "5", "--family", "cx2", "--params", "p=7,m=x"),
     "family cx2 cannot take m='x'; it takes integer p, m"),
    (("restricted-ex", "--n", "14", "--family", "cx2", "--params", "p=7,m=abc",
      "--r", "2", "--max-tree-order", "3"),
     "family cx2 cannot take m='abc'; it takes integer p, m"),
    (("verify", "--claim", "edge-add", "--params", "b=2.5"),
     "claim edge-add cannot take b='2.5'; it takes integer r, b, a"),
])
def test_non_integer_param_exits_two(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert named in err


class TestFit:
    def test_fit_with_data_out(self, capsys, tmp_path):
        out = tmp_path / "curve.dat"
        doc = run_json(capsys, "fit", "--experiment", "star-vs-path",
                       "--params", "r=3,k=4", "--ns", "48,96,192",
                       "--data-out", str(out))
        fit = doc["fit"]
        assert fit["first_order"] == pytest.approx(0.25, abs=0.01)
        lines = out.read_text().strip().splitlines()
        rows = [ln.split() for ln in lines if not ln.startswith("#")]
        assert [int(r[0]) for r in rows] == [48, 96, 192]
        deltas = {s[0]: s[1] for s in fit["samples"]}
        for n, row in zip((48, 96, 192), rows):
            assert float(row[1]) == pytest.approx(n * deltas[n], rel=1e-9)

    def test_unknown_experiment(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--experiment", "bogus")
        assert code == 2

    def test_param_not_taken_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--experiment", "edge-add",
                                 "--params", "r=3,b=2,a=0,q=9",
                                 "--ns", "60,120,240")
        assert code == 2
        assert out == ""
        assert "experiment edge_add takes no parameter q; it takes r, b, a" in err

    def test_non_integer_param_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--experiment", "edge-add",
                                 "--params", "r=3.5,b=2,a=0",
                                 "--ns", "60,120,240")
        assert code == 2
        assert out == ""
        assert ("experiment edge_add cannot take r='3.5'; "
                "it takes integer r, b, a") in err

    @pytest.mark.parametrize("argv, named", [
        (("star_vs_path", "--params", "r=1,k=4", "--ns", "4,8,16"),
         "star_vs_path needs r at least 2, got r = 1"),
        (("star_vs_path", "--params", "r=0,k=4"),
         "star_vs_path needs r at least 2, got r = 0"),
        (("transfer_shift", "--params", "r=3,k=0"),
         "transfer_shift needs k at least 2, got k = 0"),
        # at k = 1 stars and paths are both K1: G is T(n, r), H is T(n, r)
        # plus an edge, and the closed form's tree term is not 0
        (("cx1_gap", "--params", "r=3,k=1"),
         "cx1_gap needs k at least 2, got k = 1"),
        (("edge_add", "--params", "r=0,b=1,a=0"),
         "edge_add needs r at least 2, got r = 0"),
    ])
    def test_out_of_range_param_exits_two(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "fit", "--experiment", *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"error: experiment {named}" in err


class TestVerifyCommand:
    def test_single_claim(self, capsys):
        doc = run_json(capsys, "verify", "--claim", "table")
        assert doc["ok"] is True
        assert doc["claims"][0]["claim"] == "table"

    def test_failing_claim_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--claim", "cx1")
        assert code == 1
        assert err.startswith("FAILED: cx1")
        doc = json.loads(out)
        assert doc["ok"] is False

    def test_unknown_claim_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claim", "bogus")
        assert code == 2

    def test_param_the_claim_does_not_take_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--claim", "table",
                                 "--params", "q=5")
        assert code == 2
        assert out == ""
        assert "claim table" in err and "q" in err

    @pytest.mark.parametrize("claim, params, named", [
        ("cx2", "p=6", "need p congruent to 1 mod 3, got p = 6"),
        ("edge-add", "b=-1", "need nonnegative b, a with b + a >= 1"),
        ("cx1", "r=2", "r must be at least 3"),
        ("transfer-shift", "k=0",
         "experiment transfer_shift needs k at least 2, got k = 0"),
    ])
    def test_out_of_range_param_exits_two(self, capsys, claim, params, named):
        code, out, err = run_cli(capsys, "verify", "--claim", claim,
                                 "--params", params)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert named in err

    def test_params_the_claim_takes_are_accepted(self, capsys):
        # cx1 runs and fails on its own criterion, not on its parameters
        code, out, err = run_cli(capsys, "verify", "--claim", "cx1",
                                 "--params", "r=3,k=6,m=5")
        assert code == 1
        assert err.startswith("FAILED: cx1")
        assert json.loads(out)["claims"][0]["params"] == {"r": 3, "k": 6, "m": 5}


class TestOutputControls:
    def test_no_timestamps_reruns_identical(self, capsys):
        args = ("construct", "--name", "cx2", "--params", "p=7,m=3",
                "--no-timestamps")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert "timestamp" not in out1

    def test_no_timestamps_strips_elapsed(self, capsys):
        doc = run_json(capsys, "ex", "--n", "5", "--family", "K3",
                       "--no-timestamps")
        assert "elapsed" not in json.dumps(doc)

    def test_timestamp_present_by_default(self, capsys):
        doc = run_json(capsys, "construct", "--name", "f1")
        assert "timestamp" in doc

    def test_verify_reruns_identical_with_package_version(self, capsys):
        args = ("verify", "--claim", "table", "--no-timestamps")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["version"] == spexlab.__version__

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(spexlab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "spexlab", "verify", "--claim", "table",
             "--no-timestamps"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["claims"][0]["claim"] == "table"


def test_readme_commands_parse():
    # a flag that leaves the parser cannot linger in the README's examples
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("spexlab ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        line = line.replace("<g6>", encode_graph6(cycle(5)))
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.func is not None, line


def test_readme_prose_flags_exist():
    # a flag named in the README's prose is a flag of some subcommand
    readme = Path(__file__).resolve().parents[1] / "README.md"
    prose = re.sub(r"```.*?```", "", readme.read_text(encoding="utf-8"),
                   flags=re.S)
    named = {flag for span in re.findall(r"`([^`]+)`", prose)
             for flag in re.findall(r"--[a-z][a-z-]*", span)}
    assert {"--family", "--max-tree-order", "--no-timestamps",
            "--params"} <= named
    commands = next(a.choices for a in build_parser()._actions
                    if a.dest == "command")
    flags = {opt for p in commands.values() for a in p._actions
             for opt in a.option_strings}
    assert sorted(named - flags) == []


def test_readme_python_names_resolve():
    # a name deleted from the package cannot linger in the README's examples
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"),
                        re.S)
    names = {m for block in blocks for m in re.findall(r"\bsx\.(\w+)", block)}
    assert len(names) >= 8
    assert sorted(n for n in names if not hasattr(spexlab, n)) == []


def test_exports_resolve():
    # every __all__ entry exists, and spexlab re-exports only names that a
    # module's __all__ declares
    modules = [importlib.import_module(f"spexlab.{info.name}")
               for info in pkgutil.iter_modules(spexlab.__path__)
               if info.name != "__main__"]
    modules = [m for m in modules if hasattr(m, "__all__")]
    assert len(modules) >= 9
    for m in modules:
        assert [n for n in m.__all__ if not hasattr(m, n)] == [], m.__name__
    undeclared = [
        name for name, obj in vars(spexlab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
        and not any(name in m.__all__ and getattr(m, name) is obj
                    for m in modules)]
    assert undeclared == []


class TestConfig:
    @pytest.mark.parametrize("argv", [
        ("fit", "--experiment", "edge-add", "--params", "r=3,b=2,a=0"),
        ("lambda", "--graph6", "Bw"),
        ("ex", "--n", "5", "--family", "K3"),
        ("spex", "--n", "5", "--family", "K3"),
        ("verify", "--claim", "table")])
    def test_jobs_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--part", "any"), ("--edit-budget", "1")])
    def test_restricted_space_knobs_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["restricted-ex", "--n", "14", "--family", "cx2",
                  "--params", "p=7,m=3", "--r", "2", "--max-tree-order", "3",
                  *flag])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {' '.join(flag)}"
                in capsys.readouterr().err)

    def test_config_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lambda", "--graph6", "Bw", "--config", "x.conf"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --config x.conf"
                in capsys.readouterr().err)
