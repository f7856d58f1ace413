"""Conjugate-word certificates.

A ConjWord is a list of letters (generator index, exponent +-1, explicit
conjugator matrix); it evaluates to the product of c * S[g]^e * c^{-1} over
its letters.  Words are the universal upper-bound witness for the
conjugation-invariant word norm: a word of length d evaluating to g proves
that g lies in the radius-d ball around the identity.

Conjugators are stored as matrices rather than as words so a certificate can
be replayed in a single linear pass.  The empty word represents the identity
(the radius-0 ball); exponents are limited to +-1, powers being repeated
letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimMismatch, RingMismatch, VerificationFailed
from .matrices import MatrixSL, identity


@dataclass(frozen=True)
class GenSet:
    """An ordered generating set of matrices, all over one ring and dimension."""

    elements: tuple[MatrixSL, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("generating set must be nonempty")
        first = self.elements[0]
        for m in self.elements[1:]:
            if m.ring != first.ring:
                raise RingMismatch("mixed rings in generating set")
            if m.n != first.n:
                raise DimMismatch("mixed dimensions in generating set")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate matrices in generating set")

    @property
    def ring(self):
        return self.elements[0].ring

    @property
    def n(self) -> int:
        return self.elements[0].n

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, k: int) -> MatrixSL:
        return self.elements[k]


@dataclass(frozen=True)
class Letter:
    gen: int
    exp: int
    conj: MatrixSL

    def __post_init__(self):
        if self.exp not in (1, -1):
            raise ValueError("letter exponent must be +1 or -1")


@dataclass(frozen=True)
class ConjWord:
    letters: tuple[Letter, ...] = field(default_factory=tuple)

    def __len__(self):
        return len(self.letters)

    @staticmethod
    def empty() -> "ConjWord":
        return ConjWord(())

    @staticmethod
    def single(gen: int, exp: int, conj: MatrixSL) -> "ConjWord":
        return ConjWord((Letter(gen, exp, conj),))


def _replay(w: ConjWord, s: GenSet) -> MatrixSL:
    """Exact product of the letters; the empty word evaluates to the identity.

    The first invalid letter raises VerificationFailed with its step: a
    generator index out of range, or a conjugator over another ring or
    dimension.
    """
    out = identity(s.n, s.ring)
    for step, letter in enumerate(w.letters):
        if not 0 <= letter.gen < len(s):
            raise VerificationFailed(f"letter {step}: bad generator index", step=step)
        if letter.conj.ring != s.ring or letter.conj.n != s.n:
            raise VerificationFailed(f"letter {step}: conjugator mismatch", step=step)
        g = s[letter.gen] if letter.exp == 1 else s[letter.gen].inv()
        out = out * (letter.conj * g * letter.conj.inv())
    return out


def eval_word(w: ConjWord, s: GenSet) -> MatrixSL:
    """Exact product of the letters; the empty word evaluates to the identity."""
    return _replay(w, s)


def invert(w: ConjWord) -> ConjWord:
    """eval(invert(w)) = eval(w)^{-1}; same length."""
    return ConjWord(tuple(Letter(l.gen, -l.exp, l.conj) for l in reversed(w.letters)))


def concat(*ws: ConjWord) -> ConjWord:
    """eval(concat(w1, w2)) = eval(w1) * eval(w2); lengths add."""
    letters: list[Letter] = []
    for w in ws:
        letters.extend(w.letters)
    return ConjWord(tuple(letters))


def conjugate_word(w: ConjWord, h: MatrixSL) -> ConjWord:
    """eval = h * eval(w) * h^{-1}; length unchanged."""
    return ConjWord(tuple(Letter(l.gen, l.exp, h * l.conj) for l in w.letters))


def reindex(w: ConjWord, mapping: dict[int, int]) -> ConjWord:
    """Renumber generator indices (e.g. when embedding into a larger GenSet)."""
    return ConjWord(tuple(Letter(mapping[l.gen], l.exp, l.conj) for l in w.letters))


def power_word(gen: int, e: int, conj: MatrixSL) -> ConjWord:
    """|e| repeated letters realizing (c g c^{-1})^e."""
    if e == 0:
        return ConjWord.empty()
    sign = 1 if e > 0 else -1
    return ConjWord(tuple(Letter(gen, sign, conj) for _ in range(abs(e))))


def transpose_word(w: ConjWord) -> ConjWord:
    """Word over the transposed generating set with eval = eval(w)^T.

    Letters reverse order, conjugators become (c^T)^{-1}, exponents persist:
    (c A^e c^{-1})^T = (c^T)^{-1} (A^T)^e (c^T).
    """
    return ConjWord(
        tuple(
            Letter(l.gen, l.exp, l.conj.transpose().inv())
            for l in reversed(w.letters)
        )
    )


def verify_word(
    w: ConjWord, s: GenSet, target: MatrixSL, length: int | None = None
) -> None:
    """Replay a certificate; VerificationFailed with the offending step on mismatch.

    Steps 0..len-1 are letter validity, step len is the final product check.
    """
    if length is not None and len(w) != length:
        raise VerificationFailed(
            f"claimed length {length} != actual {len(w)}", step=len(w)
        )
    if _replay(w, s) != target:
        raise VerificationFailed("word does not evaluate to the target", step=len(w))
