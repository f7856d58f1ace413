"""JSON encoding of rings, matrices, generating sets and word certificates.

Ring elements travel as decimal strings so arbitrary-precision values
survive any JSON parser; matrices embed their ring so every file is
self-describing.  Readers check the shape of what they parse (objects,
lists, integers or integer strings, and a dimension of at least 2) and
raise MalformedInput otherwise.
"""

from __future__ import annotations

from .errors import MalformedInput
from .matrices import MatrixSL
from .rings import RingSpec
from .words import ConjWord, GenSet, Letter, verify_word


def _field(data, key: str, what: str):
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} must be a JSON object, not {type(data).__name__}")
    if key not in data:
        raise MalformedInput(f"{what} has no {key!r} field")
    return data[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedInput(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    """An int, or a decimal string of one; bools and floats are rejected."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return int(value)
        except ValueError:
            pass
    raise MalformedInput(f"{what} must be an integer or an integer string, not {value!r}")


def ring_to_json(ring: RingSpec) -> dict:
    if ring.kind == "Z":
        return {"kind": "Z"}
    if ring.kind == "Zmod":
        return {"kind": "Zmod", "l": ring.modulus}
    return {"kind": "Fp", "p": ring.modulus}


def ring_from_json(data: dict) -> RingSpec:
    kind = _field(data, "kind", "ring")
    if kind == "Z":
        return RingSpec.integers()
    if kind == "Zmod":
        return RingSpec.residue(_int(_field(data, "l", "ring"), "ring modulus"))
    if kind == "Fp":
        return RingSpec.prime_field(_int(_field(data, "p", "ring"), "ring modulus"))
    raise MalformedInput(f"unknown ring kind {kind!r}")


def parse_ring(text: str) -> RingSpec:
    """Command-line ring syntax: Z | Zmod:12 | Fp:7."""
    if text == "Z":
        return RingSpec.integers()
    if ":" in text:
        kind, _, arg = text.partition(":")
        if kind == "Zmod":
            return RingSpec.residue(int(arg))
        if kind == "Fp":
            return RingSpec.prime_field(int(arg))
    raise ValueError(f"cannot parse ring {text!r} (expected Z, Zmod:<l> or Fp:<p>)")


def matrix_to_json(m: MatrixSL) -> dict:
    return {
        "ring": ring_to_json(m.ring),
        "n": m.n,
        "rows": [[str(v) for v in row] for row in m.entries],
    }


def matrix_from_json(data: dict) -> MatrixSL:
    ring = ring_from_json(_field(data, "ring", "matrix"))
    rows = tuple(
        tuple(_int(v, "matrix entry") for v in _list(row, "matrix row"))
        for row in _list(_field(data, "rows", "matrix"), "matrix rows")
    )
    n = _int(_field(data, "n", "matrix"), "matrix dimension")
    if n < 2:
        raise MalformedInput(f"matrix dimension must be at least 2, not {n}")
    return MatrixSL(n, ring, rows)


def genset_to_json(s: GenSet) -> dict:
    return {"gens": [matrix_to_json(m) for m in s.elements]}


def genset_from_json(data: dict) -> GenSet:
    gens = _list(_field(data, "gens", "genset"), "gens")
    return GenSet(tuple(matrix_from_json(m) for m in gens))


def certificate_to_json(word: ConjWord, s: GenSet, target: MatrixSL) -> dict:
    return {
        "gens": [matrix_to_json(m) for m in s.elements],
        "letters": [
            {"g": l.gen, "e": l.exp, "c": matrix_to_json(l.conj)} for l in word.letters
        ],
        "claims": {
            "target": matrix_to_json(target),
            "length": len(word),
        },
    }


def certificate_from_json(data: dict) -> tuple[ConjWord, GenSet, MatrixSL, int]:
    gens_data = _list(_field(data, "gens", "certificate"), "gens")
    gens = GenSet(tuple(matrix_from_json(m) for m in gens_data))
    letters = tuple(
        Letter(
            _int(_field(l, "g", "letter"), "letter generator"),
            _int(_field(l, "e", "letter"), "letter exponent"),
            matrix_from_json(_field(l, "c", "letter")),
        )
        for l in _list(_field(data, "letters", "certificate"), "letters")
    )
    claims = _field(data, "claims", "certificate")
    target = matrix_from_json(_field(claims, "target", "claims"))
    length = _int(_field(claims, "length", "claims"), "claimed length")
    return ConjWord(letters), gens, target, length


def replay_certificate(data: dict) -> None:
    """Verify a certificate JSON object; VerificationFailed on any mismatch."""
    word, gens, target, length = certificate_from_json(data)
    verify_word(word, gens, target, length)
