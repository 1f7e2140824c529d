"""Finite-dimensional dilation and model theory for q-commuting contraction
pairs: defect tuples, twisted multipliers on truncated Hardy space, two lift
models, fundamental operators, canonical unitaries and characteristic triples,
with every structural identity verified numerically."""

from .ando import AndoTuple, special_ando_tuple, star_ando_tuple, verify_prop1, verify_prop2
from .errors import QDilateError
from .hardy import (
    TruncHardy,
    TwistedSymbol,
    extract_symbol,
    materialize,
    obs_op,
    symbol_compose,
    symbol_is_inner,
)
from .lifts import (
    LiftRealization,
    douglas_lift,
    extract_ando_from_lift,
    minimality_check,
    nonisolifts_fixture,
    schaffer_lift,
    verify_lift,
)
from .matcore import SubspaceBasis, complete_to_unitary, defect, power_limit, psd_sqrt
from .model import (
    CanonicalUnitaryPair,
    CharFn,
    CharTriple,
    FundamentalPair,
    PairAnalysis,
    canonical_unitary_pair,
    canonicity_transport,
    char_fn,
    char_triple,
    delta_fn,
    fundamental_ops,
    model_compress,
    verify_admissible,
    verify_coincidence,
    verify_unique_canonical,
)
from .pseudolift import (
    PseudoTriple,
    douglas_pseudo_lift,
    is_pseudo_lift,
    is_pseudo_triple,
    uniqueness_test,
)
from .qpair import (
    QPair,
    adjoint_pair,
    cnu_decompose,
    gen_clock_shift,
    gen_conjugated,
    gen_direct_sum,
    gen_nilpotent,
    standard_corpus,
    validate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
