"""Certificate postconditions must hold under `python -O`, which strips `assert`.

The checks raise SelfCheckFailed instead; the subprocess tests run a broken
builder under -O and expect that error, and the ratchet keeps new bare
asserts out of the library.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import boundgen

# modules whose remaining asserts are still to be converted, with their counts
ASSERT_LIMITS = {"ideals.py": 7, "witness.py": 5}


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


def test_assert_ratchet():
    counts = {
        path.name: sum(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(path.read_text())))
        for path in sorted(Path(boundgen.__file__).parent.glob("*.py"))
    }
    over = {name: c for name, c in counts.items() if c > ASSERT_LIMITS.get(name, 0)}
    assert not over, f"bare asserts above the allowed count: {over}"


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
