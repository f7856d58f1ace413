"""Certificate postconditions must hold under `python -O`, which strips `assert`.

The checks raise SelfCheckFailed instead; the subprocess tests run a broken
builder under -O and expect that error, and the ratchet keeps new bare
asserts and any `raise AssertionError` (which the CLI would let escape as a
traceback with exit 1) out of the library.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import boundgen
from boundgen import cli, factorize
from boundgen.matrices import elementary
from boundgen.rings import RingSpec
from boundgen.serialize import matrix_to_json

# modules allowed bare asserts, with their counts; none are left
ASSERT_LIMITS: dict[str, int] = {}


def run_optimized(script: str) -> subprocess.CompletedProcess:
    src = str(Path(boundgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    guard = 'if __debug__:\n    raise SystemExit("not running under -O")\n'
    return subprocess.run(
        [sys.executable, "-O", "-c", guard + script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_assert_ratchet():
    counts, raises = {}, {}
    for path in sorted(Path(boundgen.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        counts[path.name] = sum(isinstance(node, ast.Assert) for node in nodes)
        raises[path.name] = sum(isinstance(node, ast.Raise) and _raises_assertion_error(node) for node in nodes)
    over = {name: c for name, c in counts.items() if c > ASSERT_LIMITS.get(name, 0)}
    assert not over, f"bare asserts above the allowed count: {over}"
    raising = {name: c for name, c in raises.items() if c}
    assert not raising, f"raise AssertionError left (use SelfCheckFailed): {raising}"


def test_factorization_bound_check_exits_2(tmp_path, monkeypatch, capsys):
    # two cancelling letters still replay to the target, so only the 3(n-1)
    # bound claim of ElemFactorization.verify can refuse the padded word
    real = factorize._semilocal_letters

    def padded(a):
        letters = real(a)
        return letters + [(m, e, c) for m, _, c in letters[:1] for e in (1, -1)]

    monkeypatch.setattr(factorize, "_semilocal_letters", padded)
    z12 = RingSpec.residue(12)
    m = elementary(1, 2, 5, 3, z12) * elementary(2, 3, 7, 3, z12)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(matrix_to_json(m)))
    assert cli.run(["factor", str(p), "--bounded"]) == 2
    assert "exceeds claim 6" in capsys.readouterr().err


def test_certificate_length_bound_survives_optimize():
    # a direct realizer padded with 100 cancelling letters still replays to
    # E_{1,3}(1), so only the 4k(n+1) length check can refuse it
    proc = run_optimized("""
from boundgen import ideals
from boundgen.errors import SelfCheckFailed
from boundgen.matrices import elementary
from boundgen.rings import RingSpec
from boundgen.words import GenSet, concat
real = ideals.power_word
def padded(idx, e, conj):
    pad = real(idx, 1, conj)
    return concat(real(idx, e, conj), *[pad, ideals.invert(pad)] * 50)
ideals.power_word = padded
z = RingSpec.integers()
try:
    ideals.decide_normal_generation(GenSet((elementary(1, 3, 1, 3, z),)))
except SelfCheckFailed:
    raise SystemExit(0)
raise SystemExit("an over-long certificate went unnoticed")
""")
    assert proc.returncode == 0, proc.stderr


def test_unipotent_conjugator_check_survives_optimize():
    proc = run_optimized("""
from boundgen import factorize
from boundgen.errors import SelfCheckFailed
from boundgen.matrices import identity
from boundgen.rings import RingSpec
z = RingSpec.integers()
factorize.gcd_reduce_col = lambda v, ring: (2, identity(len(v), ring))
try:
    factorize.unipotent_col_to_elementary(3, [2, 4, 0], 3, z)
except SelfCheckFailed:
    raise SystemExit(0)
raise SystemExit("a broken lemma conjugator went unnoticed")
""")
    assert proc.returncode == 0, proc.stderr
