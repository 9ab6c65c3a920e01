"""srlab: a laboratory for limited-precision stochastic rounding.

Emulates precision-p floating-point arithmetic on a binary64 substrate,
where stochastic rounding draws only r random bits, alongside exact dyadic
oracles, closed-form error bounds, reference kernels, and a Monte Carlo
experiment harness.
"""

from . import bounds, dyadic, experiments, kernels, rounding, sr

__version__ = "0.1.0"
