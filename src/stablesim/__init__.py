"""Simulation and numerical verification of symmetric alpha-stable
self-similar stationary-increment processes defined by spectral kernels."""

from .core import (
    CfBatch,
    CfExponent,
    LinearCombo,
    PathEnsemble,
    cf_exponent,
    cf_exponents,
    combo,
    empirical_cf,
    sample_standard_sas,
    simulate,
)
from .kernels import (
    Admissibility,
    FAMILIES,
    Chentsov,
    FourierSeries,
    InvalidSpecError,
    Kernel,
    Lfsm,
    LinearMotion,
    LogFractional,
    MixedLfsm,
    RotatingAverage,
    TruncatedFractional,
    build,
    catalog_specs,
    integral_I,
    region_map,
    truncated_region,
    validate,
)
from .quadrature import DivergenceError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
