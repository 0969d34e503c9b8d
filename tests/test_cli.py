import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_LEIB = "x*(y*z) - (x*y)*z + (x*z)*y"


@pytest.mark.parametrize("definition,field", [
    pytest.param([1, 2], "JSON object", id="array"),
    pytest.param("str", "JSON object", id="string"),
    pytest.param(None, "JSON object", id="null"),
    pytest.param({"relations": 5}, "'relations'", id="relations-number"),
    pytest.param({"relations": [5]}, "'relations[0]'", id="relation-number"),
    pytest.param({"symmetry": ["comm"]}, "symmetry", id="symmetry-array"),
    pytest.param({"name": 5}, "'name'", id="name-number"),
    pytest.param({"relations": [_LEIB], "presentation": [5]},
                 "'presentation[0]'", id="presentation-entry-number"),
    pytest.param({"relations": [_LEIB],
                  "presentation": {"v": "Id", "w": "Id"}},
                 "'presentation'", id="presentation-object"),
    pytest.param({"relations": [_LEIB],
                  "presentation": [{"v": 5, "w": "Id"}]},
                 "'presentation[0].v'", id="presentation-v-number"),
    pytest.param({"relations": [_LEIB], "presentation": [{"v": "Id"}]},
                 "'presentation[0]' has no 'w'", id="presentation-no-w"),
])
def test_show_malformed_definition_exits_2(tmp_path, capsys, definition,
                                           field):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(definition))
    code, out, err = _run(capsys, "show", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err and err.count("\n") == 1


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


@pytest.mark.parametrize("p,q", [("lie", "com"), ("com", "com")])
def test_verify_negative_symmetric_p_checks_lifts(capsys, p, q):
    # Lie (x) Com and Com (x) Com close, so the non-closure claim is refuted
    code, out, err = _run(capsys, "verify", "negative", "--p", p, "--q", q,
                          "--json")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["verified"] is False
    rows = data["sections"][0]["rows"]
    assert [row[0] for row in rows] == {
        "lie": ["m1 + m2 + m3"], "com": ["m1 - m3", "m2 - m3"]}[p]
    assert all(row[1] == "true" for row in rows)


def test_verify_negative_symmetric_p_needs_commutative_q(capsys):
    code, out, err = _run(capsys, "verify", "negative", "--p", "lie",
                          "--q", "lie")
    assert code == 2
    assert out == ""
    assert err == ("error: --p of class anticomm is checked only against "
                   "--q of class comm, got anticomm\n")


@pytest.mark.parametrize("argv,golden", [
    (("verify", "negative", "--p", "leib", "--q", "zinb"),
     "verify_negative_leib_zinb.txt"),
    (("verify", "theorem1", "--all-presets"), "verify_theorem1_all.txt"),
])
def test_verify_matches_golden(capsys, argv, golden):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


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
    pytest.param([1, 1, 2, "1e1000000"], "rational coefficient",
                 id="1e1000000"),
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


# --- fuzzing the file inputs --------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_RELATION_TEXTS = st.sampled_from([
    _LEIB, "(x*y)*z - x*(y*z)", "m1+m2+m3", "m1 - m2", "(x*x)*z", "", "x*",
    "1/0*(x*y)*z", "(x*y)*z - 1/2*x*(y*z)",
]) | st.text(max_size=10)
_GROUP_TEXTS = st.sampled_from(
    ["Id", "Id - t23", "c1 + c2", "t12 -", "1/0*Id", "2*t13"]
) | st.text(max_size=6)
_OPERADS = _JSON | st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=5) | _JSON,
    "symmetry": st.sampled_from(["regular", "comm", "anticomm", "x"]) | _JSON,
    "relations": st.lists(_RELATION_TEXTS | _JSON, max_size=2) | _JSON,
    "presentation": st.lists(
        st.fixed_dictionaries({}, optional={"v": _GROUP_TEXTS | _JSON,
                                            "w": _GROUP_TEXTS | _JSON})
        | _JSON, max_size=2) | _JSON,
})
_ENTRIES = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(-2, 2) | st.sampled_from(["1/2", "1/0", "x"]),
).map(list)
_INSTANCES = _JSON | st.fixed_dictionaries({
    "dim": st.integers(0, 4) | _JSON,
    "structure": st.lists(_ENTRIES, max_size=4) | _JSON,
})
FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


def _run_on_file(path, text, argv):
    """run() on argv after writing text to path: (code, stdout, stderr)."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert "verified: false" in out
    if code == 2:
        assert out == "" and err.startswith("error: ")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(_OPERADS.map(json.dumps) | st.text(max_size=20))
def test_fuzzed_operad_definitions_keep_the_exit_contract(fuzz_dir, text):
    path = fuzz_dir / "operad.json"
    _assert_exit_contract(*_run_on_file(
        path, text, ["show", str(path), "--isotypic", "--dual", "--tilde"]))


@FUZZ
@given(_INSTANCES.map(json.dumps) | st.text(max_size=20))
def test_fuzzed_instances_keep_the_exit_contract(fuzz_dir, text):
    path = fuzz_dir / "instance.json"
    _assert_exit_contract(*_run_on_file(
        path, text, ["instance", "check", str(path), "--operad", "leib"]))
