"""Minimal reverse-mode autograd framework on numpy.

The paper trains its 3DGNN with torch; offline we provide an equivalent
tape-based autograd (DESIGN.md section 2).  Autograd is load-bearing beyond
training: potential relaxation (Section 4.3) needs ``dV/dC`` through the
trained network, which falls out of the same machinery by marking the
guidance tensor ``requires_grad``.
"""

from repro.nn.functional import (
    concat,
    segment_sum_csr,
    stack,
    where_positive,
)
from repro.nn.modules import MLP, Linear, Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.rbf import RBFExpansion
from repro.nn.serialization import load_state, save_state
from repro.nn.tensor import Tensor, as_tensor, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "concat",
    "segment_sum_csr",
    "stack",
    "where_positive",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "Optimizer",
    "Adam",
    "SGD",
    "RBFExpansion",
    "save_state",
    "load_state",
]
