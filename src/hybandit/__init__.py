"""Linear contextual bandits with hybrid rewards (shared + per-arm parameters).

Provides the block-structured design-matrix kernels, the LinUCB / DisLinUCB /
HyLinUCB policies, synthetic and replay-log environments, and an experiment
harness with regret traces and diversity/confidence diagnostics.
"""

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
