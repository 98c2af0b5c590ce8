"""Graded-algebra index verification toolkit.

Two routes to the same integer: spectral counts of graded operators on
model geometries, and integrals of characteristic series built from formal
curvature.  The package verifies that they agree, exactly, on everything it
can build.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraContext,
    CLIFFORD,
    EXTERIOR,
    MultiVector,
    chirality,
    clifford_mul,
    clifford_trace,
    grade_project,
    phi_eps,
    phi_eps_inv,
    supertrace,
    wedge,
)
from .charclasses import (
    FormMatrix,
    a_closed_form,
    a_hat,
    a_series_coefficients,
    block_diagonal_riemann,
    chern_character,
    index_density,
    partition_sum,
    qho_generating_function,
    series_exp,
    splitting_oracle,
    zero_riemann,
)
from .formdsl import (
    CurvatureFile,
    CurvatureFormatError,
    DslError,
    evaluate,
    load_curvature,
    pretty_print,
    read_curvature_file,
)
from .spectral import (
    AmbiguousSpectrumError,
    LatticeGaugeField,
    PairViolation,
    SpectralSystem,
    WilsonDiracOperator,
    build_torus_gauge,
    build_wilson_dirac,
    gauge_transform,
    heat_kernel_system,
    overlap_index,
    pair_check,
    plaquette_angles,
    random_gauge_transform,
    sphere_monopole_fixture,
    topological_flux,
    witten_index,
    zero_mode_asymmetry,
)
from .report import (
    VerificationReport,
    canonical_json,
    run_sphere_case,
    run_torus_case,
    run_verify_all,
    write_spectrum_csv,
)
