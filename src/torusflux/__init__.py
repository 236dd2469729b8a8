"""torusflux: flux geometry and Hofer-like length experiments on flat tori."""

from .torus import (
    FlatTorus,
    FluxClass,
    IntegrationError,
    InversionError,
    OneForm,
    PeriodicInterp,
    eval_spectral,
    harmonic_norm,
    hodge_decompose,
    integrate,
    integrate_form_along_path,
    line_integral,
    minimal_geodesic,
    osc,
    poincare_pair,
    sup_norm,
    torus_displacement,
    torus_distance,
)
from .flows import (
    ConservativityReport,
    GeneratorPair,
    GridMap,
    Isotopy,
    TimeField,
    c0_distance,
    compose_pointwise,
    constant_field,
    flow,
    flow_tolerance,
    generator_of,
    generator_residual,
    harmonic_isotopy,
    identity_isotopy,
    inverse,
    inverse_generator,
    velocity,
    verify_conservative,
)

__version__ = "0.1.0"
