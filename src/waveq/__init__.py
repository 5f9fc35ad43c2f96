"""Dyadic translation/dilation operator algebra and wavelet scaling tools.

The package is organized bottom-up:

- ``laurent``: exact dyadic exponents and sparse Laurent symbols in T.
- ``opalgebra``: normal forms for words in phase, dilation, translation.
- ``gridfn``: dyadic grid profiles and exponential sums the operators act on.
- ``qdeform``: the deformed generator triple and its closure identities.
- ``scaling``: masks, cascade iteration, wavelets, and limit-word builds.
- ``spectra``: eigenvalue recursions, ladder actions, chart data.
- ``funceq``: refinement/telescoping solvers, the commutant window system,
  and the logarithmic relabeling bridge.
- ``acceptance``: the named end-to-end checks behind the ``check`` command.
- ``cli``: the ``waveq`` command-line front end.
"""

from .acceptance import CHECKS, CheckResult, format_report, run_all
from .funceq import (
    ChiSolve,
    GammaMap,
    NoSolutionInWindowError,
    RefinementSolve,
    casimir_constancy_check,
    gamma_eval,
    gamma_inverse,
    gamma_ladder_report,
    prop1_solve,
    solve_casimir_chi,
    solve_refinement,
    suq2_bridge_check,
)
from .gridfn import (
    ExpSum,
    GridFunction,
    GridMismatchError,
    GridResolutionError,
    GridTooLargeError,
    NonFiniteWeightError,
    apply_op_expsum,
    apply_op_grid,
)
from .laurent import (
    Dyadic,
    EvaluationOverflowError,
    Exponent,
    ExponentRangeError,
    LaurentError,
    LaurentParseError,
    LaurentPoly,
    parse_laurent,
)
from .opalgebra import OpExpr, OpTerm, commutator
from .qdeform import (
    AlgebraParams,
    GeneratorSet,
    build_generators,
    check_closure,
    fourier_limit_report,
    q_number,
    verify_general_closure,
    w0_alpha0_report,
)
from .scaling import (
    PRESETS,
    CascadeDivergenceError,
    CascadeResult,
    ScalingSystem,
    WordTooLargeError,
    algebraic_form_check,
    b2_system,
    box_grid,
    cascade,
    check_admissibility,
    deformed_scaling,
    deformed_scaling_report,
    haar_system,
    hat_grid,
    limit_build,
    limit_build_report,
    wavelet_from_scaling,
)
from .spectra import (
    SpectrumTrace,
    a2half_step,
    doubling_step,
    fig1_csv,
    fig1_data,
    fig1_report,
    haar_closed_form,
    iterate_spectrum,
    ladder_check,
    zero_crossing_count,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "CHECKS",
    "CascadeDivergenceError",
    "CascadeResult",
    "CheckResult",
    "ChiSolve",
    "Dyadic",
    "EvaluationOverflowError",
    "ExponentRangeError",
    "ExpSum",
    "Exponent",
    "GammaMap",
    "GeneratorSet",
    "GridFunction",
    "GridMismatchError",
    "GridResolutionError",
    "GridTooLargeError",
    "LaurentError",
    "LaurentParseError",
    "LaurentPoly",
    "NoSolutionInWindowError",
    "NonFiniteWeightError",
    "OpExpr",
    "OpTerm",
    "PRESETS",
    "RefinementSolve",
    "ScalingSystem",
    "SpectrumTrace",
    "WordTooLargeError",
    "a2half_step",
    "algebraic_form_check",
    "apply_op_expsum",
    "apply_op_grid",
    "b2_system",
    "box_grid",
    "build_generators",
    "cascade",
    "casimir_constancy_check",
    "check_admissibility",
    "check_closure",
    "commutator",
    "deformed_scaling",
    "deformed_scaling_report",
    "doubling_step",
    "fig1_csv",
    "fig1_data",
    "fig1_report",
    "format_report",
    "fourier_limit_report",
    "gamma_eval",
    "gamma_inverse",
    "gamma_ladder_report",
    "haar_closed_form",
    "haar_system",
    "hat_grid",
    "iterate_spectrum",
    "ladder_check",
    "limit_build",
    "limit_build_report",
    "parse_laurent",
    "prop1_solve",
    "q_number",
    "run_all",
    "solve_casimir_chi",
    "solve_refinement",
    "suq2_bridge_check",
    "verify_general_closure",
    "w0_alpha0_report",
    "wavelet_from_scaling",
    "zero_crossing_count",
]
