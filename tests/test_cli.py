import json

import pytest

from boundgen.cli import run
from boundgen.errors import MalformedInput
from boundgen.matrices import elementary
from boundgen.rings import RingSpec
from boundgen.serialize import (
    certificate_from_json,
    genset_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_ring,
    ring_from_json,
    ring_to_json,
)
from boundgen.words import GenSet

Z = RingSpec.integers()
Z12 = RingSpec.residue(12)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_ring_json_round_trip():
    for ring in (Z, Z12, RingSpec.prime_field(7)):
        assert ring_from_json(ring_to_json(ring)) == ring
    assert parse_ring("Z") == Z
    assert parse_ring("Zmod:12") == Z12
    assert parse_ring("Fp:7") == RingSpec.prime_field(7)
    with pytest.raises(ValueError):
        parse_ring("GF:8")


def test_matrix_json_strings():
    m = elementary(1, 3, 10 ** 30, 3, Z)
    data = matrix_to_json(m)
    assert data["rows"][0][2] == str(10 ** 30)
    assert matrix_from_json(json.loads(json.dumps(data))) == m


def test_pia_verb(tmp_path, capsys):
    p = write(tmp_path, "m.json", matrix_to_json(elementary(1, 3, 6, 3, Z)))
    assert run(["pia", p]) == 0
    assert out_json(capsys)["support"] == ["2", "3"]


def _spoil(data, how):
    if how == "top-level list":
        return [data]
    if how == "n = 1":
        return {"ring": {"kind": "Zmod", "l": 6}, "n": 1, "rows": [["1"]]}
    if how == "rows not a list":
        data["rows"] = 5
    elif how == "ring not an object":
        data["ring"] = "Z"
    elif how == "null entry":
        data["rows"][0][1] = None
    elif how == "float entry":
        data["rows"][0][2] = 1.5
    return data


@pytest.mark.parametrize(
    "how",
    ["rows not a list", "top-level list", "ring not an object", "null entry", "float entry", "n = 1"],
)
def test_malformed_matrix_json_is_an_input_error(tmp_path, capsys, how):
    data = _spoil(matrix_to_json(elementary(1, 3, 6, 3, Z)), how)
    with pytest.raises(MalformedInput):
        matrix_from_json(data)
    assert run(["pia", write(tmp_path, "m.json", data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_normgen_yes(tmp_path, capsys):
    gens = GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z)))
    p = write(tmp_path, "g.json", genset_to_json(gens))
    cert_path = str(tmp_path / "cert.json")
    assert run(["normgen", p, "--cert-out", cert_path]) == 0
    rep = out_json(capsys)
    assert rep["decision"] == "yes" and rep["length"] == 2
    assert rep["assume_el_generates"] is True
    word, s, target, length = certificate_from_json(
        json.loads((tmp_path / "cert.json").read_text())
    )
    assert length == 2


def test_normgen_no(tmp_path, capsys):
    gens = GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 4, 3, Z)))
    p = write(tmp_path, "g.json", genset_to_json(gens))
    assert run(["normgen", p]) == 0
    rep = out_json(capsys)
    assert rep["decision"] == "no" and rep["common_prime"] == "2"


def test_verify_word_round_trip_and_tamper(tmp_path, capsys):
    gens = GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z)))
    p = write(tmp_path, "g.json", genset_to_json(gens))
    cert_path = str(tmp_path / "cert.json")
    run(["normgen", p, "--cert-out", cert_path])
    capsys.readouterr()
    assert run(["verify-word", cert_path]) == 0
    capsys.readouterr()

    cert = json.loads((tmp_path / "cert.json").read_text())
    cert["letters"][0]["e"] *= -1
    bad = write(tmp_path, "bad.json", cert)
    assert run(["verify-word", bad]) == 2
    rep = out_json(capsys)
    assert rep["verified"] is False
    assert rep["step"] == 2  # final-product mismatch index


def test_factor_verb(tmp_path, capsys):
    m = elementary(1, 2, 5, 3, Z12) * elementary(2, 3, 7, 3, Z12)
    p = write(tmp_path, "m.json", matrix_to_json(m))
    assert run(["factor", p, "--bounded"]) == 0
    rep = out_json(capsys)
    assert rep["length"] <= 6 and rep["bound_value"] == 6


def test_factor_bounded_over_z_rejected(tmp_path, capsys):
    p = write(tmp_path, "m.json", matrix_to_json(elementary(1, 2, 5, 3, Z)))
    assert run(["factor", p, "--bounded"]) == 1


def test_hessenberg_verb(tmp_path, capsys):
    p = write(tmp_path, "m.json", matrix_to_json(elementary(3, 1, 7, 3, Z)))
    assert run(["hessenberg", p]) == 0
    rep = out_json(capsys)
    assert rep["verified"] is True
    h = matrix_from_json(rep["H"])
    assert h[1, 1] == 1


def test_ball_verb_with_csv(tmp_path, capsys):
    f2 = RingSpec.prime_field(2)
    p = write(tmp_path, "g.json", genset_to_json(GenSet((elementary(1, 2, 1, 2, f2),))))
    csv_path = str(tmp_path / "growth.csv")
    assert run(["ball", "--ring", "Fp:2", "--n", "2", "--gens", p, "--csv", csv_path]) == 0
    rep = out_json(capsys)
    assert rep["order"] == 6 and rep["diameter"] == 2
    lines = (tmp_path / "growth.csv").read_text().strip().splitlines()
    assert lines[0] == "radius,ball_size"
    assert lines[-1] == "2,6"


def test_delta_verb(capsys):
    assert run(["delta", "--ring", "Fp:2", "--n", "2", "--k", "1"]) == 0
    assert out_json(capsys)["delta"] == 2
    # SL(2,F11) has 1,320 elements; a search over class sets needs no order limit
    assert run(["delta", "--ring", "Fp:11", "--n", "2", "--k", "2"]) == 0
    assert out_json(capsys)["delta"] == 3
    # SL(2,Z/12) has two maximal normal subgroups, so no set of more than
    # two class units needs a search
    assert run(["delta", "--ring", "Zmod:12", "--n", "2", "--k", "5"]) == 0
    assert out_json(capsys)["delta"] == 6


def test_witness_lower_verb(capsys):
    assert run(["witness-lower", "--n", "3", "--primes", "2,3,5"]) == 0
    rep = out_json(capsys)
    assert rep["crt_word_length"] == 6
    assert rep["coefficients"] == ["1", "1", "-4"]
    assert rep["norm_lower_bound"] == 3


def test_bound_verb(capsys):
    assert run(["bound", "--regime", "residue", "--n", "3", "--l", "12"]) == 0
    assert out_json(capsys)["value"] == 48


def test_bound_verb_bad_parameter_is_an_input_error(capsys):
    argv = ["bound", "--regime", "infinite-maximal-ideals", "--n", "3", "--c-n", "-3"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs c_n >= 1, got -3" in captured.err


def test_class_bound_verb(capsys):
    assert run(
        ["class-bound", "--order", "168", "--delta", "2", "--class-size", "21"]
    ) == 0
    rep = out_json(capsys)
    assert rep["generic_holds"] is True


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert run(["pia", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_usage_errors(tmp_path, capsys):
    assert run(["pia", str(tmp_path / "missing.json")]) == 1
    assert run(["bound", "--regime", "bogus", "--n", "3"]) == 1
    capsys.readouterr()
    for argv in (
        ["delta", "--ring", "Fp:2", "--n", "2", "--k", "0"],
        ["delta", "--ring", "Fp:2", "--n", "2", "--k", "-3"],
        ["check-identities", "--trials", "0"],
        ["check-identities", "--trials", "-1"],
        ["class-bound", "--order", "168", "--delta", "2", "--class-size", "0"],
        ["class-bound", "--order", "168", "--delta", "2", "--class-size", "-1"],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_deterministic_reports(tmp_path, capsys):
    p = write(tmp_path, "m.json", matrix_to_json(elementary(1, 3, 6, 3, Z)))
    for argv in (["pia", p], ["delta", "--ring", "Zmod:4", "--n", "2", "--k", "2"]):
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first and first == second


def test_check_identities_verb(capsys):
    assert run(["check-identities", "--trials", "20", "--seed", "7"]) == 0
    rep = out_json(capsys)
    assert rep["seed"] == 7
    assert {s["suite"] for s in rep["suites"]} == {
        "double_commutator",
        "steinberg",
        "sigma",
    }


def test_check_inequalities_verb(capsys):
    assert run(["check-inequalities"]) == 0
    rep = out_json(capsys)
    assert rep["all_hold"] is True
    assert len(rep["checks"]) >= 10


@pytest.mark.parametrize("where", ["input", "out"])
def test_directory_path_is_an_input_error(tmp_path, capsys, where):
    p = write(tmp_path, "m.json", matrix_to_json(elementary(1, 2, 5, 3, Z)))
    argv = ["pia", str(tmp_path)] if where == "input" else ["pia", p, "--out", str(tmp_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_factor_ring_flag_mismatch(tmp_path, capsys):
    p = write(tmp_path, "m.json", matrix_to_json(elementary(1, 2, 5, 3, Z12)))
    assert run(["factor", p, "--ring", "Zmod:6"]) == 1
    assert run(["factor", p, "--ring", "Zmod:12"]) == 0
