from .autograd import Parameter, Tensor, concat, no_grad, zero_grads
from .blocks import (
    GatedResidualNetwork,
    LstmCell,
    LstmEncoder,
    MultiHeadAttention,
    VariableSelection,
    causal_mask,
)
from .gradcheck import GradCheckReport, gradcheck
from .layers import LayerNorm, Linear, RMSNorm, SwigluFF, dropout, rmsnorm
from .optim import adam_step

__all__ = [
    "GatedResidualNetwork",
    "GradCheckReport",
    "LayerNorm",
    "Linear",
    "LstmCell",
    "LstmEncoder",
    "MultiHeadAttention",
    "Parameter",
    "RMSNorm",
    "SwigluFF",
    "Tensor",
    "VariableSelection",
    "adam_step",
    "causal_mask",
    "concat",
    "dropout",
    "gradcheck",
    "no_grad",
    "rmsnorm",
    "zero_grads",
]
