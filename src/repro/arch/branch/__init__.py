"""Branch prediction."""

from .indirect import (
    HybridIndirectPredictor,
    INDIRECT_PREDICTORS,
    TargetCache,
    run_indirect_predictor,
)
from .predictors import (
    BTB,
    BimodalBHT,
    BranchSimResult,
    DirectionPredictor,
    GAp,
    Gshare,
    PREDICTORS,
    SingleTwoBit,
    compare_predictors,
    replay,
    run_predictor,
)

__all__ = [
    "BTB",
    "HybridIndirectPredictor",
    "INDIRECT_PREDICTORS",
    "TargetCache",
    "run_indirect_predictor",
    "BimodalBHT",
    "BranchSimResult",
    "DirectionPredictor",
    "GAp",
    "Gshare",
    "PREDICTORS",
    "SingleTwoBit",
    "compare_predictors",
    "replay",
    "run_predictor",
]
