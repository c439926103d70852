"""Orthogonal matrices with prescribed sign patterns.

Exact verification (orthogonality, determinant sign, sign pattern) over Q and
Q(sqrt2), combinatorial tests on sign patterns, numerical realization search
on the orthogonal group, rational certification of numerical finds, and
small-order censuses.
"""

from .exact import (
    ParseError,
    QuadMatrix,
    QuadRational,
    RatMatrix,
    det,
    det_sign,
    is_orthogonal,
    parse_matrix_json,
    sgn,
)
from .fixtures import FIXTURE_NAMES, get_fixture
from .hunt import (
    AMBIGUOUS_FOUND,
    NONE_FOUND,
    ONLY_MINUS_FOUND,
    ONLY_PLUS_FOUND,
    CensusAmbiguityError,
    CensusReport,
    DetSignEvidence,
    census,
    classify_det_sign,
    exhaustive_2x2_oracle,
)
from .realize import (
    RealizationResult,
    SearchConfig,
    ortho_residual,
    rational_certify,
    refine_from,
    reorthonormalize,
    search_many,
    search_realization,
)
from .signpat import (
    GroupElement,
    NecessaryCheckReport,
    SignPattern,
    UnsupportedOrderError,
    act,
    canonical_form,
    necessary_check,
    orbit_of,
    orbit_representatives,
    pair_compatible,
    sign_pattern_of,
    to_float,
    waters_forced_sign,
    waters_pattern,
)

__version__ = "0.1.0"
