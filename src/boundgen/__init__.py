"""boundgen: exact certificates and ball search for word norms in SL(n,R)."""

__version__ = "0.1.0"

from .ballsearch import (
    BallReport,
    DeltaReport,
    FiniteGroupTable,
    backtrack_word,
    ball_bfs,
    delta_exhaustive,
    enumerate_group,
)
from .factorize import (
    ElemFactorization,
    elem_as_two,
    factor_euclid,
    factor_semilocal,
    stable_range_reduce,
)
from .hessenberg import HessenbergCert, gcd_reduce_row, to_hessenberg
from .ideals import (
    Decision,
    ECertificate,
    PrimeSupport,
    decide_normal_generation,
    double_commutator,
    hessenberg_ideal,
    offdiag_ideal,
    pi_support,
    scalar_obstruction_ideal,
)
from .matrices import ElemSpec, MatrixSL, elementary, identity, sigma
from .rings import IdealGen, RingSpec
from .serialize import genset_to_json
from .witness import LowerBoundWitness, build_lower_witness, class_size_lower, delta_upper
from .words import ConjWord, GenSet, eval_word, verify_word

__all__ = [
    "__version__",
    "BallReport",
    "ConjWord",
    "Decision",
    "DeltaReport",
    "ECertificate",
    "ElemFactorization",
    "ElemSpec",
    "FiniteGroupTable",
    "GenSet",
    "HessenbergCert",
    "IdealGen",
    "LowerBoundWitness",
    "MatrixSL",
    "PrimeSupport",
    "RingSpec",
    "backtrack_word",
    "ball_bfs",
    "build_lower_witness",
    "class_size_lower",
    "decide_normal_generation",
    "delta_exhaustive",
    "delta_upper",
    "double_commutator",
    "elem_as_two",
    "elementary",
    "enumerate_group",
    "eval_word",
    "factor_euclid",
    "factor_semilocal",
    "gcd_reduce_row",
    "genset_to_json",
    "hessenberg_ideal",
    "identity",
    "offdiag_ideal",
    "pi_support",
    "scalar_obstruction_ideal",
    "sigma",
    "stable_range_reduce",
    "to_hessenberg",
    "verify_word",
]
