import json
import pathlib

import pytest

from operad_forge.algebra_instances import example
from operad_forge.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_instance(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(example(name).to_json()))
    return str(path)


def test_show_preset(capsys):
    code, out, _ = _run(capsys, "show", "ass")
    assert code == 0
    assert "(x1*x2)*x3 - x1*(x2*x3)" in out
    assert "rank" in out


def test_show_dual_self_dual(capsys):
    code, out, _ = _run(capsys, "show", "ass", "--dual")
    assert code == 0
    assert "equals relations     true" in out.replace("  ", " ") or \
        "equals relations" in out
    assert "true" in out


def test_show_isotypic_and_orbits(capsys):
    code, out, _ = _run(capsys, "show", "g6ass", "--isotypic", "--orbits",
                        "--rank")
    assert code == 0
    assert "isotypic" in out
    assert "orbits" in out


def test_show_unknown_preset_exits_2(capsys):
    code, _, err = _run(capsys, "show", "nosuch")
    assert code == 2
    assert "unknown preset" in err


def test_show_json_schema(capsys):
    code, out, _ = _run(capsys, "show", "leib", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    labels = [s["label"] for s in data["sections"]]
    assert "relations" in labels


def test_show_operad_definition_file(tmp_path, capsys):
    path = tmp_path / "leib.json"
    path.write_text(json.dumps({
        "name": "myleib",
        "symmetry": "regular",
        "relations": ["x*(y*z) - (x*y)*z + (x*z)*y"],
    }))
    code, out, _ = _run(capsys, "show", str(path))
    assert code == 0
    assert "myleib" in out


def test_show_bad_definition_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "symmetry": "regular", "relations": ["(x*x)*z"]
    }))
    code, _, err = _run(capsys, "show", str(path))
    assert code == 2
    assert "error" in err


def test_tilde_subcommand(capsys):
    code, out, _ = _run(capsys, "tilde", "leib")
    assert code == 0
    assert "x1*(x2*x3) - x1*(x3*x2)" in out


def test_verify_theorem1_single(capsys):
    code, out, _ = _run(capsys, "verify", "theorem1", "--preset", "ass",
                        "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_theorem1_all(capsys):
    code, out, _ = _run(capsys, "verify", "theorem1", "--all-presets")
    assert code == 0
    assert "verified: true" in out


def test_verify_bracket_lie(capsys):
    code, out, _ = _run(capsys, "verify", "bracket-lie")
    assert code == 0
    assert "verified: true" in out


def test_verify_twisted_poisson(capsys):
    code, out, _ = _run(capsys, "verify", "twisted-poisson", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    # the sign-flipped control is reported and fails
    rows = data["sections"][0]["rows"]
    assert ["sign-flipped control (3, -1, -1, 1)", "false"] in rows


def test_verify_negative(capsys):
    code, out, _ = _run(capsys, "verify", "negative", "--p", "leib",
                        "--q", "zinb", "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_negative_closure_that_holds_fails(capsys):
    # ass (x) ass closes, so the non-closure claim is refuted: exit 1
    code, out, _ = _run(capsys, "verify", "negative", "--p", "ass",
                        "--q", "ass", "--json")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_companion(capsys):
    code, out, _ = _run(capsys, "companion", "poiss")
    assert code == 0
    assert "contained in tilde      true" in out
    assert "closure with companion  true" in out


def test_companion_rejects_symmetric(capsys):
    code, _, err = _run(capsys, "companion", "lie")
    assert code == 2
    assert "regular" in err


def test_instance_check_pass(tmp_path, capsys):
    path = _write_instance(tmp_path, "leibniz_3d")
    code, out, _ = _run(capsys, "instance", "check", path,
                        "--operad", "leib")
    assert code == 0
    assert "verified: true" in out


def test_instance_check_fail(tmp_path, capsys):
    path = _write_instance(tmp_path, "leibniz_3d")
    code, out, _ = _run(capsys, "instance", "check", path,
                        "--operad", "zinb")
    assert code == 1
    assert "verified: false" in out


@pytest.mark.parametrize("entry,message", [
    pytest.param([1, 0, 2, "1"], "indices in 1..3", id="0"),
    pytest.param([1, 4, 2, "1"], "indices in 1..3", id="4"),
    pytest.param([1, 1, 2, "1/0"], "rational coefficient", id="1/0"),
    pytest.param([1, 1, 2, "x"], "rational coefficient", id="x"),
    pytest.param([1, 1, 2, 0.1], "rational coefficient", id="0.1"),
    pytest.param([True, 1, 2, "1"], "indices in 1..3", id="true"),
])
def test_instance_check_index_outside_basis_exits_2(tmp_path, capsys, entry,
                                                    message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "structure": [entry]}))
    code, out, err = _run(capsys, "instance", "check", str(path),
                          "--operad", "leib")
    assert code == 2
    assert out == ""
    assert err.startswith("error: structure entry ({}, {}, {}, {})".format(
        *entry))
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("dim", [2.7, True, 17])
def test_instance_check_dimension_outside_cap_exits_2(tmp_path, capsys, dim):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": dim, "structure": []}))
    code, out, err = _run(capsys, "instance", "check", str(path),
                          "--operad", "leib")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: dimension must be an integer in 1..16, got {dim!r}\n")


def test_instance_tensor_dimension_outside_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"dim": 5, "structure": [[1, 1, 2, 1]]}))
    code, out, err = _run(capsys, "instance", "tensor", str(path), str(path))
    assert code == 2
    assert out == ""
    assert err == "error: tensor product dimension 5*5 = 25 exceeds 16\n"


def test_instance_tensor(tmp_path, capsys):
    a = _write_instance(tmp_path, "lie_nonabelian_2d")
    b = _write_instance(tmp_path, "zinbiel_3d")
    code, out, _ = _run(capsys, "instance", "tensor", a, b)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6
    assert data["structure"]


def test_instance_tensor_poisson_twist(tmp_path, capsys):
    a = _write_instance(tmp_path, "poisson_unital_4d")
    code, out, _ = _run(capsys, "instance", "tensor", a, a,
                        "--twist", "poisson")
    assert code == 0
    assert json.loads(out)["dim"] == 16


def test_search_counterexample(capsys):
    code, out, _ = _run(capsys, "search", "counterexample", "--p", "leib",
                        "--q", "zinb", "--max-dim", "3")
    assert code == 0
    assert "violating triple" in out


@pytest.mark.parametrize("argv,message", [
    (("--p", "leib", "--q", "zinb", "--max-dim", "1"), "between 2 and 4"),
    (("--p", "lie", "--q", "lie", "--max-dim", "2"), "regular-class"),
    (("--p", "com", "--q", "ass", "--max-dim", "2"), "regular-class"),
])
def test_search_counterexample_bad_input_exits_2(capsys, argv, message):
    code, out, err = _run(capsys, "search", "counterexample", *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_report_matches_golden(capsys):
    code, out, _ = _run(capsys, "report", "paper-tables")
    assert code == 0
    assert out == (GOLDEN / "paper_tables.txt").read_text()


def test_report_json(capsys):
    code, out, _ = _run(capsys, "report", "paper-tables", "--json")
    assert code == 0
    data = json.loads(out)
    labels = [s["label"] for s in data["sections"]]
    assert "lie-admissible family sweep" in labels
    assert "symmetric-class submodule enumeration" in labels


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_SEED", "7")
    code, out, _ = _run(capsys, "show", "leib")
    assert code == 0
    assert "seed: 7" in out


def test_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_SEED", "abc")
    code, out, err = _run(capsys, "show", "leib")
    assert code == 2
    assert out == ""
    assert "argument --seed: invalid int value: 'abc'" in err
    assert "Traceback" not in err
    # a seed on the command line replaces the variable
    code, out, _ = _run(capsys, "show", "leib", "--seed", "3")
    assert code == 0
    assert "seed: 3" in out


def test_preset_name_wins_over_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "leib").write_text(json.dumps({"name": "impostor"}))
    code, out, _ = _run(capsys, "show", "leib")
    assert code == 0
    assert out.startswith("operad leib\n")
    assert "impostor" not in out


@pytest.mark.parametrize("argv", [
    ("show", "family_ab"),
    ("verify", "theorem1", "--preset", "family_t"),
])
def test_family_preset_without_parameters_exits_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "takes parameters" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["verify", "nosuchcheck"]) == 2
    capsys.readouterr()
