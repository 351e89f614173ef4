"""Exact Ext-group computations for Drinfeld modules and Anderson
t-modules over twisted polynomial rings."""

from .errors import (
    CarrierTooLarge,
    DimensionMismatch,
    DivisionByZero,
    FiniteFieldRequired,
    InvariantViolation,
    InvalidModule,
    MixedFields,
    MixedPairs,
    NonMonomialDenominator,
    NotAMorphism,
    NotAQthPower,
    NotNilpotent,
    ParseError,
    PolynomialTooLarge,
    SingularLeading,
    TmodError,
    UnboundedSearch,
    UnsupportedRegime,
    UsageError,
)
from .coefficients import (
    FieldElement,
    FieldSpec,
    make_finite,
    make_formal,
    make_rational,
    parse_field,
)
from .skewpoly import (
    SIGMA,
    TAU,
    SkewMatrix,
    SkewPoly,
    parse_apoly,
    parse_element,
    parse_matrix,
    parse_poly,
    parse_value,
)
from .modules_t import (
    TModule,
    carlitz,
    carlitz_power,
    check_morphism,
    drinfeld,
    inner_matrix,
    morphism_residual,
    parse_module,
    tmodule,
    trivial,
)
from .biderivations import (
    Assembly,
    Biderivation,
    ReductionResult,
    assemble,
    canonical_slots,
    reduce_canonical,
    select_regime,
)
from .ext_structures import (
    ExtStructure,
    GaSequence,
    duality_transport,
    ext_product,
    ext_structure,
    ga_sequence,
)
from .homological import (
    HomSpace,
    Inconclusive,
    NotSplit,
    SixTerm,
    SplitWitness,
    baer_sum,
    class_of,
    hom_space,
    is_split,
    pullback,
    pushout,
    six_term,
    t_action,
)
from .oracle import (
    Check,
    Report,
    enumerate_ext,
    verify_duality,
    verify_ga,
    verify_sixterm,
    verify_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
