"""Golden reports: fixed `cli.run` argv lists whose stdout bytes and exit
codes must not change.

Each entry is the SHA-256 of everything the command prints on stdout, and its
exit code.  A change that alters no result (a refactor, a deletion, a speed-up)
keeps every entry.  A change that alters a report on purpose records the new
hash here and says why.  `class-bound` is left out: its thresholds are floats
from libm's log2.
"""

import hashlib
import json

import pytest

from boundgen.cli import run
from boundgen.matrices import elementary, identity
from boundgen.rings import RingSpec
from boundgen.serialize import genset_to_json, matrix_to_json
from boundgen.words import GenSet

Z = RingSpec.integers()
Z6 = RingSpec.residue(6)
Z12 = RingSpec.residue(12)
F5 = RingSpec.prime_field(5)


def _genset(*mats):
    return genset_to_json(GenSet(tuple(mats)))


def _z_matrix():
    return (
        elementary(2, 1, 3, 3, Z)
        * elementary(1, 3, -5, 3, Z)
        * elementary(3, 2, 7, 3, Z)
        * elementary(1, 2, 2, 3, Z)
    )


def _z12_matrix():
    return elementary(1, 2, 5, 3, Z12) * elementary(2, 3, 7, 3, Z12) * elementary(3, 1, 4, 3, Z12)


def _sl3_z6_gens():
    h = elementary(2, 1, 1, 3, Z6) * elementary(3, 2, 2, 3, Z6) * elementary(1, 2, 5, 3, Z6)
    return _genset(
        h * elementary(1, 3, 3, 3, Z6) * h.inv(),
        h * elementary(1, 3, 2, 3, Z6) * h.inv(),
    )


def _bad_index_certificate(tmp_path):
    """A normgen certificate whose first letter names a missing generator."""
    path = tmp_path / "cert.json"
    gens = _genset(elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z))
    run(["normgen", _write(tmp_path, "g.json", gens), "--cert-out", str(path)])
    cert = json.loads(path.read_text())
    cert["letters"][0]["g"] = 7
    return cert


# name -> (argv, {file name: builder}); a "{name}" in argv is that file's path
CASES = {
    "pia": (["pia", "{m}"], {"m": lambda _: matrix_to_json(elementary(1, 3, 6, 3, Z))}),
    "pia-scalar": (["pia", "{m}"], {"m": lambda _: matrix_to_json(identity(3, Z))}),
    "normgen-yes": (
        ["normgen", "{g}"],
        {"g": lambda _: _genset(elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z))},
    ),
    "normgen-no": (
        ["normgen", "{g}"],
        {"g": lambda _: _genset(elementary(1, 3, 2, 3, Z), elementary(1, 3, 4, 3, Z))},
    ),
    "normgen-all-scalar": (["normgen", "{g}"], {"g": lambda _: _genset(identity(3, Z))}),
    "factor-z12-bounded": (
        ["factor", "{m}", "--bounded"],
        {"m": lambda _: matrix_to_json(_z12_matrix())},
    ),
    "factor-z": (["factor", "{m}"], {"m": lambda _: matrix_to_json(_z_matrix())}),
    "factor-z-bounded": (
        ["factor", "{m}", "--bounded"],
        {"m": lambda _: matrix_to_json(_z_matrix())},
    ),
    "hessenberg": (["hessenberg", "{m}"], {"m": lambda _: matrix_to_json(_z_matrix())}),
    "verify-word-bad-index": (["verify-word", "{c}"], {"c": _bad_index_certificate}),
    "ball-psl2-f5": (
        ["ball", "--ring", "Fp:5", "--n", "2", "--psl", "--gens", "{g}"],
        {"g": lambda _: _genset(elementary(1, 2, 1, 2, F5))},
    ),
    "ball-sl3-z6": (
        ["ball", "--ring", "Zmod:6", "--n", "3", "--gens", "{g}"],
        {"g": lambda _: _sl3_z6_gens()},
    ),
    **{
        f"delta-{ring}": (["delta", "--ring", ring, "--n", "2"], {})
        for ring in ("Fp:2", "Fp:3", "Fp:5", "Zmod:4", "Zmod:6", "Zmod:12")
    },
    "delta-sl3-f3": (["delta", "--ring", "Fp:3", "--n", "3", "--k", "1"], {}),
    "delta-sl3-z9": (["delta", "--ring", "Zmod:9", "--n", "3"], {}),
    "witness-lower": (["witness-lower", "--n", "3", "--primes", "2,3,5"], {}),
    "bound-infinite": (
        ["bound", "--regime", "infinite-maximal-ideals", "--n", "4", "--k", "2", "--c-n", "5"],
        {},
    ),
    "bound-semilocal": (["bound", "--regime", "semilocal", "--n", "3", "--k", "2", "--d", "7"], {}),
    "bound-number-ring": (["bound", "--regime", "number-ring", "--n", "5", "--k", "3"], {}),
    "bound-residue": (["bound", "--regime", "residue", "--n", "3", "--l", "60"], {}),
    "check-identities": (["check-identities", "--seed", "2024"], {}),
    "check-inequalities": (["check-inequalities"], {}),
}

# name -> (exit code, SHA-256 of stdout)
GOLDEN = {
    "ball-psl2-f5": (0, "489fdcb26758c0131981f7fe92ffec78ec32bbc9610f1030f8722915a7cdde58"),
    "ball-sl3-z6": (0, "397f881c5cb994730579c765b7ad2d6ef6df14202422227239ec49ab05ca1c83"),
    "bound-infinite": (0, "95e3ac3d7c9d345d78dcf1c22cb25c17acb4e773aa05aca62da554fe7cdbf6b5"),
    "bound-number-ring": (0, "7ab68c0bca9b5e05f80660f9137ccf60ae36d8dcbdf7809dc5fa1a67d3fea41b"),
    "bound-residue": (0, "3c110c74561805da1c74c0e633e58a5ed1fee9b819b531941602bf5e8a35f1b6"),
    "bound-semilocal": (0, "0ceb601dbe5accd964e2911d3c7149818f8adae665a31055f1a370b58dee845c"),
    "check-identities": (0, "f151e1ee6b31d478a2f1565974de17d49d6c102324e1aa2563b24d847e587b12"),
    "check-inequalities": (0, "bcc82f0b894e046f8328e345d832d5033a7e21529d9120b89c1426f92819e32c"),
    "delta-Fp:2": (0, "36be166c81884dd2dd5ce2ffafd08e9c36ea47471a4b9cee2667828d19bb1a26"),
    "delta-Fp:3": (0, "0b604ecf535b620790bc3af12f995653db175c51001d519d20be08d1a55b8458"),
    "delta-Fp:5": (0, "b7d97c7d7bed59da5bab41e16ef2fceb14d5960b2a27dff8b46c7b1d4f8c987c"),
    # delta-Zmod:12 and delta-Zmod:6 run through the prime-power factors: the
    # witness is the CRT of their least-key reps, ((4, l-1), (1, 0)) in place
    # of the whole group's least key ((2, l-1), (1, 0))
    "delta-Zmod:12": (0, "542030e772601af13d37e3fcbf7f0da25fcb450fe060b4bd0d452df77f9148b4"),
    "delta-Zmod:4": (0, "39c63a4fa4989eb70f3161371983a9e591501be910550a7f3deb40be7fb69593"),
    "delta-Zmod:6": (0, "995de26aafd8965f0e10ce9b3a00ded038beb9d8847d9ab81d096fe0620e0e12"),
    "delta-sl3-f3": (0, "0ee237086df84605505bae0a1bc3e3885ca9b17a5a398c9d08e658bef2678fe9"),
    "delta-sl3-z9": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "factor-z": (0, "c16ee56e3480d6b82fa8184013d804f2281493d9097268a31dd984b9aa83806d"),
    "factor-z-bounded": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "factor-z12-bounded": (0, "9bc7e5dd27624ae6984e0a9f8a98d82e212d38eec0c47e1133b6004e4fdf69eb"),
    "hessenberg": (0, "593e88713296a1270f667c42d715962cd8a764a0eaed15c8f45b074246e57f7a"),
    "normgen-all-scalar": (0, "e2c5169b66f469ceb688566896fd7a604a9786ce27929518dced66b0f87cba75"),
    "normgen-no": (0, "dbfff7ddf8ae4d3befe503dcddfff2977609d4f2a179b31315572d173a266d35"),
    "normgen-yes": (0, "b607433606b0e3f4c67b81f5ec950c2553bfe44d70d5392740a66bcceb39f6f7"),
    "pia": (0, "c49da4e32ee4655f70357583610dc71dbe3a3f4d4042f0c9d58e96548cd44bf8"),
    "pia-scalar": (0, "c84e3045df3a8eb316d073c4a1a2e4b0d9c847ea7a0ea3852d38a45161306028"),
    "verify-word-bad-index": (2, "b87fe8e16fac3d9861e3876ca33f867f546994da0b141bf17e1322eb70dd23b5"),
    "witness-lower": (0, "11ed1c2e12f4f4bd88c3bed424c5ed4171883fdeb8ad94fc6e7184a55f348300"),
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def report(name, tmp_path, capsys):
    """(exit code, SHA-256 of stdout) of one case."""
    argv, files = CASES[name]
    paths = {key: _write(tmp_path, f"{key}.json", build(tmp_path)) for key, build in files.items()}
    capsys.readouterr()
    code = run([arg.format(**paths) for arg in argv])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_case_has_a_golden_entry():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, capsys):
    assert report(name, tmp_path, capsys) == GOLDEN[name]
