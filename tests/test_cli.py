import json
import re
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import opclass.cli as cli
from opclass.generators import GENERATORS, GenSpec, build, random_ginibre
from opclass.matio import load_matrix, save_matrix

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def _validator(name: str) -> Draft202012Validator:
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(doc)))
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft202012Validator(schema, registry=registry)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "ident.json"
    save_matrix(path, np.eye(3, dtype=complex))
    return str(path)


@pytest.fixture
def j2_file(tmp_path, j2):
    path = tmp_path / "j2.json"
    save_matrix(path, j2)
    return str(path)


def test_classify_identity(capsys, identity_file):
    code, doc = _run(capsys, ["classify", identity_file])
    assert code == 0
    assert all(v["status"] == "Member" for v in doc["verdicts"])
    assert doc["chain_violations"] == []
    _validator("classify.schema.json").validate(doc)


def test_classify_j2_with_k_list(capsys, j2_file):
    code, doc = _run(capsys, ["classify", j2_file, "--k", "1", "2"])
    assert code == 0
    status = {
        (v["class"], v["params"].get("k")): v["status"] for v in doc["verdicts"]
    }
    assert status[("KQuasiParanormal", 1)] == "Member"
    assert status[("KQuasiParanormal", 2)] == "Member"
    assert status[("Paranormal", None)] == "NonMember"
    assert status[("Normaloid", None)] == "NonMember"
    _validator("classify.schema.json").validate(doc)


def test_classify_nonsquare_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1, 0]] * 3}))
    code, doc = _run(capsys, ["classify", str(bad)])
    assert code == 1
    assert doc["error"]["type"] == "ParseError"


def test_classify_missing_file_is_error_document(capsys, tmp_path):
    code, doc = _run(capsys, ["classify", str(tmp_path / "missing.json")])
    assert code == 1
    assert doc["error"]["type"] == "FileNotFoundError"


def test_classify_out_of_range_p_is_error_document(capsys, identity_file):
    code, doc = _run(capsys, ["classify", identity_file, "--p", "2"])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_classify_non_finite_tol_is_error_document(capsys, identity_file, tol):
    code, doc = _run(capsys, ["classify", identity_file, f"--tol={tol}"])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


def test_classify_overflowing_scale_is_error_document(capsys, tmp_path):
    # ||T|| = 1e40 puts the k = 3 class scales past the largest double.
    path = tmp_path / "huge.json"
    save_matrix(path, 1e40 * random_ginibre(3, 1))
    code, doc = _run(capsys, ["classify", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "overflows" in doc["error"]["message"]


def test_verify_non_finite_tol_is_error_document(capsys):
    code, doc = _run(capsys, ["verify", "embry", "--trials", "2", "--tol", "nan"])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("flag, value", [("--trials", "-3"), ("--max-dim", "-4"),
                                         ("--max-dim", "1")])
def test_verify_out_of_range_sizes_are_error_documents(capsys, flag, value):
    code, doc = _run(capsys, ["verify", "ando", "--trials", "2", flag, value])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


def test_decompose_normal_pure(capsys, tmp_path, j2):
    path = tmp_path / "mix.json"
    save_matrix(path, scipy.linalg.block_diag([[5.0]], j2).astype(complex))
    code, doc = _run(capsys, ["decompose", "normal-pure", str(path)])
    assert code == 0
    dec = doc["decomposition"]
    assert dec["labels"] == ["NormalPart", "PurePart"]
    assert dec["block_dims"] == [1, 2]
    _validator("decomposition.schema.json").validate(doc)


def test_decompose_root(capsys, tmp_path, j2):
    path = tmp_path / "root.json"
    save_matrix(path, scipy.linalg.block_diag([[1.0]], j2).astype(complex))
    code, doc = _run(capsys, ["decompose", "root", str(path), "--n", "2", "--k", "1"])
    assert code == 0
    assert doc["decomposition"]["labels"] == ["NormalPart", "NilpotentPart"]
    assert max(doc["decomposition"]["residuals"].values()) < 1e-8


def test_decompose_root_hypothesis_violated(capsys, tmp_path, j3):
    path = tmp_path / "j3.json"
    save_matrix(path, j3)
    code, doc = _run(capsys, ["decompose", "root", str(path), "--n", "2", "--k", "1"])
    assert code == 1
    assert doc["error"]["type"] == "HypothesisViolated"


def test_decompose_nilpotent2(capsys, j2_file):
    code, doc = _run(capsys, ["decompose", "nilpotent2", j2_file])
    assert code == 0
    assert doc["decomposition"]["rr_form"]["C"]["entries"] == [[1.0, 0.0]]


def test_generate_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = cli.main([
            "generate", "counterexample", "--dim-m", "2", "--dim-n", "2",
            "--seed", "7", "-o", str(out),
        ])
        capsys.readouterr()
        assert code == 0
    assert out1.read_text() == out2.read_text()
    sidecar = json.loads((tmp_path / "a.json.sidecar.json").read_text())
    assert sidecar["certification"]["normaloid"]["status"] == "Member"
    assert sidecar["certification"]["normal"]["status"] == "NonMember"
    _validator("sidecar.schema.json").validate(sidecar)


def test_generate_jordan_sidecar(capsys, tmp_path):
    out = tmp_path / "j.json"
    code = cli.main([
        "generate", "jordan", "--dim", "4", "--index", "3", "--seed", "1",
        "-o", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    sidecar = json.loads((out.parent / "j.json.sidecar.json").read_text())
    assert sidecar["certification"]["k_quasi_paranormal[k=2]"]["status"] == "Member"
    _validator("sidecar.schema.json").validate(sidecar)


def test_generate_rr_sidecar(capsys, tmp_path):
    out = tmp_path / "rr.json"
    code = cli.main([
        "generate", "rr", "--dim-a", "1", "--dim-bc", "2", "--seed", "3",
        "-o", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    sidecar = json.loads((out.parent / "rr.json.sidecar.json").read_text())
    assert sidecar["certification"]["square_of_normal"]["status"] == "Member"


def test_generate_then_classify_round_trip(capsys, tmp_path):
    out = tmp_path / "k.json"
    code = cli.main([
        "generate", "k-quasi", "--dim-normal", "2", "--dim-nil", "2",
        "--k", "1", "--seed", "11", "-o", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    sidecar = json.loads((out.parent / "k.json.sidecar.json").read_text())
    cert = sidecar["certification"]["k_quasi_paranormal[k=1]"]

    code, doc = _run(capsys, ["classify", str(out), "--seed", "11"])
    assert code == 0
    row = next(
        v for v in doc["verdicts"]
        if v["class"] == "KQuasiParanormal" and v["params"].get("k") == 1
    )
    assert row["status"] == cert["status"]
    assert row["defect"] == cert["defect"]


def test_generate_matrix_market_format(capsys, tmp_path):
    out = tmp_path / "u.mtx"
    code = cli.main(["generate", "unitary", "--dim", "3", "--seed", "2", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    assert "MatrixMarket" in out.read_text().splitlines()[0]


@pytest.mark.parametrize("kind, flags, params", [
    ("unitary", ["--dim", "3"], {"dim": 3}),
    ("normal", ["--dim", "3"], {"dim": 3}),
    ("ginibre", ["--dim", "3"], {"dim": 3}),
    ("jordan", ["--index", "2", "--dim", "3"], {"dim": 3, "index": 2}),
    ("counterexample", ["--dim-n", "2", "--dim-m", "1"], {"dim_m": 1, "dim_n": 2}),
    ("scalar-root", ["--lam=-1+2j", "--n", "2", "--dim", "3"],
     {"dim": 3, "n": 2, "lambda": [-1.0, 2.0]}),
    ("scalar-root", ["--dim", "2", "--n", "3"], {"dim": 2, "n": 3, "lambda": [1.0, 0.0]}),
    ("k-quasi", ["--k", "1", "--dim-nil", "2", "--dim-normal", "1"],
     {"dim_normal": 1, "dim_nil": 2, "k": 1}),
    ("rr", ["--dim-bc", "1", "--dim-a", "1"], {"dim_a": 1, "dim_bc": 1, "b_zero": False}),
    ("rr", ["--b-zero", "--dim-a", "0", "--dim-bc", "2"],
     {"dim_a": 0, "dim_bc": 2, "b_zero": True}),
])
def test_generate_records_its_flags_and_rebuilds(capsys, tmp_path, kind, flags, params):
    out = tmp_path / "g.json"
    code = cli.main(["generate", kind, *flags, "--seed", "5", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    spec = json.loads((tmp_path / "g.json.sidecar.json").read_text())["spec"]
    # The flag values, whatever their order on the command line, in table order.
    assert list(spec["params"].items()) == list(params.items())
    assert list(spec["params"]) == [key for key in GENERATORS[kind][1] if key in params]
    np.testing.assert_array_equal(load_matrix(out), build(GenSpec.from_json_dict(spec)))


@pytest.mark.parametrize("lam, error", [("inf", "InvalidSpec"), ("nan", "InvalidSpec"),
                                        ("1e308+1e308j", "ValueError"),
                                        ("1.5e308+1.5e308j", "InvalidSpec")])
def test_generate_failure_writes_nothing(capsys, tmp_path, lam, error):
    # 1e308+1e308j builds, but its certification overflows; the larger value
    # overflows the square root itself.
    code, doc = _run(capsys, ["generate", "scalar-root", "--dim", "2", "--n", "2",
                              "--lam", lam, "-o", str(tmp_path / "s.json")])
    assert code == 1
    assert doc["error"]["type"] == error
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, lam", [
    pytest.param("1", "1e308+1e308j", id="1e308+1e308j"),
    pytest.param("1", "1.5e308+1.5e308j", id="1.5e308+1.5e308j"),
    pytest.param("2", "1e308+1e308j", id="n2-1e308+1e308j"),
    pytest.param("2", "1e200", id="n2-1e200"),
])
def test_generate_overflowing_class_scale_warns_nothing(capsys, tmp_path, n, lam):
    # At n = 1 the matrix has entries lam: its norm is 1.41e308, or NaN where
    # the SVD overflows, and either way the class scale is refused before
    # certification forms any product of T that would overflow. At n = 2 the
    # class scales are finite, but the Frobenius norm of the self-commutator
    # overflows in its sum of squares; unchecked, the 1e200 root would be
    # certified with a NonMember "normal" verdict of defect -Infinity.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _run(capsys, ["generate", "scalar-root", "--dim", "2", "--n", n,
                                  "--lam", lam, "-o", str(tmp_path / "s.json")])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "overflows" in doc["error"]["message"]
    assert list(tmp_path.iterdir()) == []


def test_classify_negative_k_is_error_document(capsys, identity_file):
    code, doc = _run(capsys, ["classify", identity_file, "--k", "-3"])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


def test_readme_names_every_generator_kind_and_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Generator kinds:"))
    for kind in GENERATORS:
        assert f"`{kind}`" in paragraph
        for flag, _ in cli._kind_arguments(kind):
            assert re.search(rf"{flag}\b(?!-)", paragraph), (kind, flag)


def test_verify_single_suite(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, doc = _run(capsys, [
        "verify", "ando", "--trials", "8", "--max-dim", "5", "--seed", "42",
        "-o", str(report),
    ])
    assert code == 0
    assert doc["failures_total"] == 0
    full = json.loads(report.read_text())
    assert full["reports"][0]["theorem_id"] == "ando"
    assert full["reports"][0]["notes"]["counterexamples_confirmed"] >= 1
    _validator("suite_report.schema.json").validate(full)


def test_verify_unknown_theorem(capsys):
    code, doc = _run(capsys, ["verify", "bogus-id"])
    assert code == 1
    assert doc["error"]["type"] == "UnknownTheorem"


def test_verify_search_q2(capsys, tmp_path):
    report = tmp_path / "q2.json"
    code, doc = _run(capsys, [
        "verify", "search-q2", "--trials", "6", "--max-dim", "4", "--seed", "1",
        "-o", str(report),
    ])
    assert code == 0
    full = json.loads(report.read_text())
    assert full["reports"][0]["notes"]["candidates"] == 0


def test_seed_env_default(capsys, j2_file, monkeypatch):
    monkeypatch.setenv("OPCLASS_SEED", "99")
    code, doc = _run(capsys, ["classify", j2_file])
    assert code == 0
    assert doc["seed"] == 99


@pytest.mark.parametrize("argv", [["verify", "stampfli", "--trials", "1"],
                                  ["generate", "ginibre", "--dim", "3", "-o", "g.json"]])
def test_malformed_seed_env_is_error_document(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OPCLASS_SEED", "abc")
    code, doc = _run(capsys, argv)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "OPCLASS_SEED" in doc["error"]["message"]
    assert not (tmp_path / "g.json").exists()


def test_matrix_file_schema(identity_file):
    doc = json.loads(Path(identity_file).read_text())
    _validator("matrix.schema.json").validate(doc)


def test_verdict_schema(capsys, j2_file):
    code, doc = _run(capsys, ["classify", j2_file])
    validator = _validator("verdict.schema.json")
    for row in doc["verdicts"]:
        verdict = {k: v for k, v in row.items() if k not in ("class", "params")}
        validator.validate(verdict)


@pytest.mark.parametrize("argv", [["classify", "{file}", "--k", "one"],
                                  ["verify", "all", "--trials", "ten"],
                                  ["frobnicate"],
                                  []])
def test_usage_errors_are_error_documents(capsys, identity_file, argv):
    # argparse printed usage and exited 2, which is EXIT_INCONCLUSIVE.
    code, doc = _run(capsys, [a.format(file=identity_file) for a in argv])
    assert code == cli.EXIT_ERROR
    assert doc["error"]["type"] == "UsageError"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["classify", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: opclass classify")


def _one_line(text: str) -> dict:
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


def test_every_document_is_one_line_and_valid(capsys, tmp_path, j2):
    matrix, nil2 = tmp_path / "m.json", tmp_path / "j2.json"
    save_matrix(matrix, scipy.linalg.block_diag([[1.0]], j2).astype(complex))
    save_matrix(nil2, j2)
    _validator("matrix.schema.json").validate(_one_line(matrix.read_text()))

    def run(argv) -> dict:
        cli.main(argv)
        return _one_line(capsys.readouterr().out)

    _validator("classify.schema.json").validate(run(["classify", str(matrix)]))
    for argv in (["normal-pure", str(matrix)], ["nilpotent2", str(nil2)],
                 ["root", str(matrix), "--n", "2", "--k", "1"]):
        _validator("decomposition.schema.json").validate(run(["decompose", *argv]))
    out = tmp_path / "g.json"
    run(["generate", "counterexample", "--dim-m", "2", "--dim-n", "2", "--seed", "7",
         "-o", str(out)])
    _validator("matrix.schema.json").validate(_one_line(out.read_text()))
    sidecar = _one_line((tmp_path / "g.json.sidecar.json").read_text())
    _validator("sidecar.schema.json").validate(sidecar)
    report = tmp_path / "rep.json"
    summary = run(["verify", "stampfli", "--trials", "2", "--seed", "1", "-o", str(report)])
    assert summary["command"] == "verify"
    _validator("suite_report.schema.json").validate(_one_line(report.read_text()))
    assert "error" in run(["classify", str(tmp_path / "missing.json")])
