"""srlab: a laboratory for limited-precision stochastic rounding.

Emulates precision-p floating-point arithmetic on a binary64 substrate,
where stochastic rounding draws only r random bits, alongside exact dyadic
oracles, closed-form error bounds, reference kernels, and a Monte Carlo
experiment harness.
"""

from .bounds import (
    BoundQuery,
    ah_bound_inner,
    ah_bound_sum,
    b_envelope,
    bc_bound_inner,
    bc_bound_sum,
    bias_bound_inner,
    bias_bound_sum,
    cond_inner,
    cond_sum,
    det_bound_sum,
    gamma,
    rule_of_thumb_r,
    tail_roundoff,
    unit_roundoff,
)
from .dyadic import (
    DyadicValue,
    dy_add,
    dy_from_float,
    dy_mul,
    dy_q,
    dy_to_float,
    exact_dot,
    exact_sum,
)
from .experiments import (
    ExperimentSpec,
    SummaryRow,
    estimate_coverage,
    run_bounds_table,
    run_rosenbrock,
    run_sum_experiment,
    write_rows,
)
from .kernels import (
    GdTrajectory,
    KernelResult,
    gd_rosenbrock,
    inner_product,
    recursive_sum,
    rosenbrock_f,
    rosenbrock_grad,
)
from .rounding import (
    FpFormat,
    SubstrateRangeError,
    is_representable,
    round_down,
    round_nearest,
    round_up,
    truncate,
    ulp,
)
from .sr import (
    IDEAL,
    MODE_RN,
    MODE_SR,
    RngStream,
    SrConfig,
    enumerate_distribution,
    q_r_numerator,
    rn_config,
    sr_config,
    sr_round,
    sr_sample,
)

__version__ = "0.1.0"
