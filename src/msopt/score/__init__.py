"""Score oracles: exact mixture formulas, trainable network, VE sampler."""

from msopt.score.dsm import dsm_train
from msopt.score.mlp import ScoreMlp, load_score_mlp, make_score_mlp
from msopt.score.oracles import (
    EmpiricalScoreOracle,
    ExactManifoldAdapter,
    MlpScoreOracle,
    quadrature_nodes,
)
from msopt.score.sampler import ve_reverse_sample

__all__ = [
    "EmpiricalScoreOracle",
    "ExactManifoldAdapter",
    "MlpScoreOracle",
    "quadrature_nodes",
    "ScoreMlp",
    "make_score_mlp",
    "load_score_mlp",
    "dsm_train",
    "ve_reverse_sample",
]
