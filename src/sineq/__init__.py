"""Numerical toolkit for dilation inequalities of the complex Gaussian
measure on complete Reinhardt sets and of the symmetric exponential
measure on unconditional convex bodies: closed-form measure identities,
derivative and moment criteria, entropy inequalities with exact
step-function oracles, reproducible Monte Carlo, and sharp norm-moment
comparison.
"""

from .bodies import (
    ReinhardtBody,
    UnconditionalBody,
    annulus_body,
    box_body,
    check_downward_closed,
    check_midpoint_convex,
    cross_polytope,
    cube_body,
    custom_reinhardt,
    cylinder_body,
    norm_ball,
    parse_descriptor,
    polydisc,
    product,
    reinhardt_lp_ball,
    strip_body,
    unconditional_lp_ball,
    validate_body,
)
from .entropy import (
    EntropyReport,
    MonotoneRadialFunction,
    StepFunction,
    TailMeasure1D,
    check_lemma_1d,
    check_lemma_multidim,
    check_subadditivity,
    complement_indicator,
    inverse_tail,
)
from .integrate import (
    Engine,
    Estimate,
    SampleStream,
    mc_integral,
    mc_measure,
    tensor_quadrature,
)
from .measures import (
    MeasureKind,
    abs_moment_exponential,
    complex_gaussian,
    cylinder_measure,
    cylinder_second_moment,
    exp_strip_first_moment,
    exp_strip_measure,
    exponential,
    xlnx,
)
from .moments import MomentPair, cpq, gauge_norm, moment_ratio
from .verify import (
    BodyStats,
    CriterionReport,
    DilationReport,
    FullCheckReport,
    SweepReport,
    body_statistics,
    calibrate_cylinder,
    calibrate_strip,
    check_derivative_criterion,
    check_moment_criterion_exponential,
    check_moment_criterion_gaussian,
    check_tensorization,
    derivative_at_one,
    dilation_curve,
    full_check,
    sweep,
)

__version__ = "0.1.0"
