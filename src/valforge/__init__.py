"""Numerical engine for mixed-volume representations of smooth valuations.

Builds spanning ellipsoid families with pointwise dual coefficient frames,
decomposes smooth kernels on sphere products into separable terms, synthesizes
finite mixed-volume combinations equal to the kernel valuation, verifies the
round trip by independent evaluation, and runs the zonal divergence lab that
separates mixed-volume spans from general continuous valuations.
"""

from .bodies import (
    ConvexBody,
    ConvexityViolation,
    NotSmoothError,
    ball_approx,
    body_from_dict,
    body_to_dict,
    convexity_certificate,
    ellipsoid_approx,
    make_ball,
    make_ellipsoid,
    make_perturbed_ball,
    make_polytope,
    minkowski_support,
    translate,
)
from .counterexample import (
    CounterexampleDensity,
    ZonalTestFunction,
    counterexample_valuation,
    cutoff_psi,
    derivative_reduction,
    divergence_probe,
    divergence_sweep,
    gw_sphere_oracle,
    gw_zonal,
    gw_zonal_by_parts,
    make_zonal_bump,
)
from .family import (
    EllipsoidFamily,
    SpanningFailure,
    SpanningFrame,
    build_family,
    dual_frame,
    norm_constant,
    norm_constant_diagnostic,
    spanning_certificate,
    standard_basis,
)
from .harmonics import (
    HarmonicCombination,
    combine_dictionary,
    harmonic_dictionary,
    project_to_dictionary,
)
from .kernels import (
    ReconstructionFailure,
    TensorDecomposition,
    decompose_kernel,
    harmonic_table_kernel,
    norm_bound_report,
    reconstruct,
    separable_kernel,
)
from .mixed import (
    mixed_area_density,
    mixed_volume_quadrature,
    mixed_volume_smooth,
    parallel_body_volume,
    polytope_mixed_volume,
    polytope_volume,
    steiner_coefficients,
)
from .sphere import (
    SphereGrid,
    SphericalFunction,
    build_grid,
    sphere_area,
    tangent_basis,
)
from .synthesis import (
    FiniteCombination,
    KernelValuation,
    accumulate_g_alpha,
    combination_from_dict,
    combination_to_dict,
    convexify,
    evaluate_combination,
    evaluate_kernel_valuation,
    mixed_volume_count_bound,
    parity_project,
    synthesize,
)

__version__ = "0.1.0"
