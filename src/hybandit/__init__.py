"""Linear contextual bandits with hybrid rewards (shared + per-arm parameters).

Provides the block-structured design-matrix kernels, the LinUCB / DisLinUCB /
HyLinUCB policies, synthetic and replay-log environments, and an experiment
harness with regret traces and diversity/confidence diagnostics.
"""

import os

# The matrices are at most 64x64 and the parallelism comes from the process pool: one BLAS thread.
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ):
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from .model import ContextRound, HybridParams
from .linalg import BlockDesign, SparseHybridVector, SymPosDef
from .policies import PolicyConfig, default_lambda, exploration_coefficient, make_policy

__all__ = [
    "BlockDesign",
    "ContextRound",
    "HybridParams",
    "PolicyConfig",
    "SparseHybridVector",
    "SymPosDef",
    "default_lambda",
    "exploration_coefficient",
    "make_policy",
]

__version__ = "0.1.0"
