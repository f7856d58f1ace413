"""Certificates survive the JSON boundary, and tampered ones are rejected.

Each example is a `normgen` certificate for E_{1,3}(1) over Z or a `factor`
certificate over Z/12 or Z/4, built from random elementary products.  It
must round-trip through `certificate_to_json` / `certificate_from_json` and
replay; `verify-word` must exit 2 once a claimed length, a generator index
or the letter count is tampered with.  A flipped exponent may still be
valid (E_ij(6) is an involution over Z/12), so its verdict is compared with
a plain-integer replay that shares no code with the toolkit.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boundgen.cli import run
from boundgen.factorize import factor_semilocal
from boundgen.ideals import decide_normal_generation
from boundgen.matrices import elementary, identity
from boundgen.rings import RingSpec
from boundgen.serialize import certificate_from_json, certificate_to_json, replay_certificate
from boundgen.words import GenSet

Z = RingSpec.integers()
TAMPERS = ("length+1", "length-1", "index-high", "index-low", "drop", "flip")


@st.composite
def elementary_product(draw, n, ring, lo, hi):
    m = identity(n, ring)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        x = draw(st.sampled_from([v for v in range(lo, hi + 1) if v]))
        m = m * elementary(i, j, x, n, ring)
    return m


@st.composite
def certificates(draw):
    """(word, generating set, target) of a normgen or a factor certificate."""
    if draw(st.booleans()):
        a = draw(elementary_product(3, Z, -6, 6))
        b = draw(elementary_product(3, Z, -6, 6))
        assume(a != b)
        gens = GenSet((a, b))
        d = decide_normal_generation(gens)
        assume(d.generates)
        return d.certificate, gens, elementary(1, 3, 1, 3, Z)
    l = draw(st.sampled_from([12, 4]))
    ring = RingSpec.residue(l)
    n = draw(st.integers(3, 4))
    mat = draw(elementary_product(n, ring, 1, l - 1))
    fact = factor_semilocal(mat)
    return fact.word, fact.genset, mat


def _rows(m: dict) -> list[list[int]]:
    return [[int(v) for v in row] for row in m["rows"]]


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _inv(m):
    """The adjugate, which is the inverse of a determinant-1 matrix."""
    n = len(m)
    return [
        [(-1) ** (i + j) * _det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def plain_replay_holds(cert: dict) -> bool:
    """Whether the letters multiply to the claimed target, in plain integers."""
    ring = cert["claims"]["target"]["ring"]
    mod = ring.get("l", ring.get("p"))
    gens = [_rows(g) for g in cert["gens"]]
    n = len(gens[0])
    out = [[int(r == c) for c in range(n)] for r in range(n)]
    for letter in cert["letters"]:
        c = _rows(letter["c"])
        g = gens[letter["g"]] if letter["e"] == 1 else _inv(gens[letter["g"]])
        out = _mul(_mul(_mul(out, c), g), _inv(c))
        if mod is not None:
            out = [[v % mod for v in row] for row in out]
    target = _rows(cert["claims"]["target"])
    if mod is not None:
        target = [[v % mod for v in row] for row in target]
    return len(cert["letters"]) == cert["claims"]["length"] and out == target


def verify_word_cli(cert: dict) -> tuple[int, dict]:
    """Exit code and report of `boundgen verify-word` on a certificate file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        code = run(["verify-word", path, "--out", out])
        with open(out, encoding="utf-8") as fh:
            return code, json.load(fh)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=certificates())
def test_certificate_json_round_trip_replays(case):
    word, gens, target = case
    data = json.loads(json.dumps(certificate_to_json(word, gens, target)))
    word2, gens2, target2, length = certificate_from_json(data)
    assert word2 == word
    assert gens2.elements == gens.elements
    assert target2 == target
    assert length == len(word)
    replay_certificate(data)
    assert plain_replay_holds(data)
    assert verify_word_cli(data)[0] == 0


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=certificates(), tamper=st.sampled_from(TAMPERS), pick=st.integers(0, 10 ** 6))
def test_tampered_certificate_is_rejected(case, tamper, pick):
    word, gens, target = case
    assume(len(word) > 0)
    cert = json.loads(json.dumps(certificate_to_json(word, gens, target)))
    letters = cert["letters"]
    k = pick % len(letters)
    if tamper == "length+1":
        cert["claims"]["length"] += 1
    elif tamper == "length-1":
        cert["claims"]["length"] -= 1
    elif tamper == "index-high":
        letters[k]["g"] = len(cert["gens"])
    elif tamper == "index-low":
        letters[k]["g"] = -1
    elif tamper == "drop":
        del letters[k]
    else:
        letters[k]["e"] *= -1
        code, report = verify_word_cli(cert)
        assert code == (0 if plain_replay_holds(cert) else 2)
        assert report["verified"] is (code == 0)
        return
    code, report = verify_word_cli(cert)
    assert code == 2
    assert report["verified"] is False


def test_flipping_an_involutive_letter_keeps_a_valid_certificate():
    z12 = RingSpec.residue(12)
    e = elementary(1, 2, 6, 3, z12)
    fact = factor_semilocal(e)
    cert = json.loads(json.dumps(certificate_to_json(fact.word, fact.genset, e)))
    assert len(cert["letters"]) == 1
    cert["letters"][0]["e"] *= -1
    assert plain_replay_holds(cert)
    assert verify_word_cli(cert)[0] == 0
