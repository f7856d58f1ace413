"""Exception types shared across the toolkit.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming errors.
"""


class BoundgenError(Exception):
    """Base class for all toolkit errors."""


# --- rings ---

class NotCoprime(BoundgenError):
    """gcd of the two arguments is not a unit."""


class UnsupportedRing(BoundgenError):
    """Operation requires a ring with finitely many maximal ideals."""


class FactorizationTooLarge(BoundgenError):
    """Integer factorization exceeded the configured budget."""


class ExactDivisionError(BoundgenError):
    """No ring element y satisfies divisor * y = dividend."""


# --- matrices ---

class BadIndex(BoundgenError):
    """Row/column index out of range or i == j for an elementary matrix."""


class RingMismatch(BoundgenError):
    """Operands live over different rings."""


class DimMismatch(BoundgenError):
    """Operands have different dimensions."""


class DeterminantNotOne(BoundgenError):
    """Matrix construction rejected: determinant differs from 1."""


class NotApplicable(BoundgenError):
    """Steinberg relation precondition fails; fall back to exact multiplication."""


# --- words ---

class VerificationFailed(BoundgenError):
    """A certificate does not replay to its claimed target."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


# --- hessenberg / ideals ---

class NotHessenberg(BoundgenError):
    """Input matrix is not upper Hessenberg."""


class BadIndices(BoundgenError):
    """Index arguments violate the lemma preconditions."""


class PreconditionViolated(BoundgenError):
    """Double-commutator precondition fails; message names the offender."""


# --- factorize ---

class BaseFactorizerFailed(BoundgenError):
    """Base-dimension factorizer raised or returned an invalid word."""


# --- witness ---

class NotPrime(BoundgenError):
    """Expected a prime number."""


class DuplicatePrime(BoundgenError):
    """Witness construction requires pairwise distinct primes."""


class BadRegime(BoundgenError):
    """Unknown bound regime name."""


class DegenerateGroup(BoundgenError):
    """Group order too small for the class-size bound."""


# --- ballsearch ---

class BudgetExceeded(BoundgenError):
    """Group enumeration would exceed the dense key-space limit."""


# --- serialize ---

class MalformedInput(BoundgenError):
    """A JSON document or an argument has the wrong shape, value type or range."""


# --- internal postconditions ---

class SelfCheckFailed(BoundgenError):
    """A result failed the toolkit's own postcondition check (an internal defect)."""
