from .autograd import Parameter, Tensor, concat, no_grad, zero_grads
from .blocks import GatedResidualNetwork, LstmCell, LstmEncoder, MultiHeadAttention, VariableSelection
from .layers import LayerNorm, Linear, Module, RMSNorm, SwigluFF, dropout_mask
from .optim import ParamArena, adam_step

__all__ = [
    "GatedResidualNetwork",
    "LayerNorm",
    "Linear",
    "LstmCell",
    "LstmEncoder",
    "Module",
    "MultiHeadAttention",
    "ParamArena",
    "Parameter",
    "RMSNorm",
    "SwigluFF",
    "Tensor",
    "VariableSelection",
    "adam_step",
    "concat",
    "dropout_mask",
    "no_grad",
    "zero_grads",
]
