"""soficwreath: build and certify sofic approximations of wreath products.

Given finite windowed approximations of a lamp group and a base group by
permutations, the library assembles an approximation of their wreath product
acting coordinate-wise on the product carrier, evaluates every normalized
Hamming distance exactly through a sparse factorized representation, and
emits machine-checkable certificates with exact rational defects.
"""

from importlib import import_module as _import_module

from .perm import (
    Permutation,
    agreement_fraction,
    compose,
    hamming,
    random_permutation,
    transposition,
)
from .groups import (
    DirectSum,
    FinSuppMap,
    Group,
    WreathElement,
    WreathProduct,
    cyclic,
    finite_from_table,
    free,
    group_from_descriptor,
    integers,
    symmetric,
    wreath_product,
)
from .sofic import (
    CertificateError,
    DefectReport,
    SoficApprox,
    WindowViolationError,
    cyclic_quotient,
    is_sofic_approx,
    perturb,
    quotient_by_images,
    regular_rep,
)
from .bigperm import (
    EXPANSION_CAP,
    CoordAction,
    compose_actions,
    action_distance,
    coord_action,
    expand_explicit,
    fixed_fraction,
    identity_action,
)
from .construct import (
    Budget,
    GoodBlock,
    WindowSets,
    WreathApprox,
    build,
    check_good_block_bound,
    compute_good_blocks,
    derive_windows,
    lamp_action,
    make_budget,
    wreath_approx_from_json,
)

# ``verify`` loads on first use (PEP 562), as ``build`` checks no certificate.  Nothing
# is kept here, so each access reads the binding in ``verify``, which a tracer may wrap.
_FROM_VERIFY = {"AlmostHomReport", "Certificate", "DetailedReport", "check_almost_homomorphism",
                "detailed_reports", "oracle_check", "verify_construction"}
__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["verify", *_FROM_VERIFY])


def __getattr__(name: str):
    if name == "verify" or name in _FROM_VERIFY:
        verify = _import_module(f"{__name__}.verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
