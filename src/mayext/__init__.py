"""Second-term cohomology of the odd-primary Steenrod algebra.

The library computes the first two terms of the standard filtration
spectral sequence for Ext over the mod-p Steenrod algebra, certifies
vanishing and dimension claims, propagates dimensions through the long
exact sequences of small cell complexes, and does the degree
bookkeeping for the periodic families that those Ext groups detect.
"""

from .adams_certify import (
    Certificate,
    InvalidRange,
    MissingRepresentative,
    NamedClass,
    ParamsOutOfRange,
    UnknownName,
    WindowReport,
    adams_dr_window,
    certify_ext_dim,
    certify_ext_vanishing,
    product_nonzero_at_e2,
    resolve_named,
)
from .cli_runner import (
    WindowTooLarge,
    eval_expr,
    load_claims,
    run_claims,
)
from .greek_bp import (
    AlphaIndex,
    BetaIndex,
    BPGen,
    ColumnTooLarge,
    GammaIndex,
    NoDictionaryEntry,
    UnknownFamily,
    alpha_generators,
    beta_admissible,
    enumerate_beta,
    enumerate_ext0_KR,
    enumerate_ext1_BPK,
    parse_index,
    stem_of,
    thom_image,
)
from .les_dims import (
    DimInterval,
    SphereTable,
    ext_dims,
)
from .may_core import (
    Element,
    Generator,
    InvalidParams,
    MayextError,
    Monomial,
    ParseError,
    PrimeContext,
    TriDegree,
    WorkBudgetExceeded,
    a,
    b,
    h,
    multiply,
    parse_element,
    parse_monomial,
    product,
    tridegree,
)
from .may_diff import (
    E2Report,
    d1,
)
from .session import (
    DiskCache,
    Session,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaIndex",
    "BPGen",
    "BetaIndex",
    "Certificate",
    "ColumnTooLarge",
    "DimInterval",
    "DiskCache",
    "E2Report",
    "Element",
    "GammaIndex",
    "Generator",
    "InvalidParams",
    "InvalidRange",
    "MayextError",
    "MissingRepresentative",
    "Monomial",
    "NamedClass",
    "NoDictionaryEntry",
    "ParamsOutOfRange",
    "ParseError",
    "PrimeContext",
    "Session",
    "SphereTable",
    "TriDegree",
    "UnknownFamily",
    "UnknownName",
    "WindowReport",
    "WindowTooLarge",
    "WorkBudgetExceeded",
    "a",
    "adams_dr_window",
    "alpha_generators",
    "b",
    "beta_admissible",
    "certify_ext_dim",
    "certify_ext_vanishing",
    "d1",
    "enumerate_beta",
    "enumerate_ext0_KR",
    "enumerate_ext1_BPK",
    "eval_expr",
    "ext_dims",
    "h",
    "load_claims",
    "multiply",
    "parse_element",
    "parse_index",
    "parse_monomial",
    "product",
    "product_nonzero_at_e2",
    "resolve_named",
    "run_claims",
    "stem_of",
    "thom_image",
    "tridegree",
]
