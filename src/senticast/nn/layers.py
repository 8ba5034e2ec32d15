"""Parameterized layers: linear maps, norms, gated feed-forward, dropout."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .autograd import Parameter, Tensor

NORM_EPS = 1e-8


class Module:
    """A block whose trainable parameters are the ones its attributes hold."""

    def parameters(self) -> list[Parameter]:
        """Parameters held by attributes, in assignment order; lists are walked in order."""
        params: list[Parameter] = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Parameter):
                    params.append(item)
                # Duck-typed: the benchmark's timing proxies forward `parameters` but are not Modules.
                elif hasattr(item, "parameters"):
                    params += item.parameters()
        return params


class Linear(Module):
    """Affine map on the trailing axis: y = x @ W + b.

    Weights and bias draw from U(-1/sqrt(d_in), 1/sqrt(d_in)).  A nonzero
    bias keeps scalar-input projections off the line through the origin,
    away from the high-curvature region of the downstream norms.
    """

    def __init__(self, d_in: int, d_out: int, name: str, rng: np.random.Generator, bias: bool = True):
        bound = 1.0 / np.sqrt(d_in)
        self.weight = Parameter(rng.uniform(-bound, bound, size=(d_in, d_out)), f"{name}.weight")
        self.bias = Parameter(rng.uniform(-bound, bound, size=d_out), f"{name}.bias") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """y_i = gain_i * x_i / sqrt(mean(x^2) + eps), over the trailing axis."""
    if x.shape[-1] != gain.shape[-1]:
        raise ShapeError(f"rmsnorm gain dim {gain.shape[-1]} != input dim {x.shape[-1]}")
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + NORM_EPS) ** -0.5) * gain


class RMSNorm(Module):
    def __init__(self, dim: int, name: str):
        self.gain = Parameter(np.ones(dim), f"{name}.gain")

    def __call__(self, x: Tensor) -> Tensor:
        return rmsnorm(x, self.gain)


class LayerNorm(Module):
    """Standard layer normalization with learned gain and shift."""

    def __init__(self, dim: int, name: str):
        self.gain = Parameter(np.ones(dim), f"{name}.gain")
        self.shift = Parameter(np.zeros(dim), f"{name}.shift")

    def __call__(self, x: Tensor) -> Tensor:
        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered * ((var + NORM_EPS) ** -0.5) * self.gain + self.shift


def make_norm(kind: str, dim: int, name: str):
    if kind == "rmsnorm":
        return RMSNorm(dim, name)
    if kind == "layernorm":
        return LayerNorm(dim, name)
    raise ShapeError(f"unknown norm type {kind!r}")


class SwigluFF(Module):
    """Gated feed-forward: W3-projected silu(W1 x) * (W2 x), or plain relu."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, variant: str, name: str, rng: np.random.Generator):
        if variant not in ("swiglu", "relu"):
            raise ShapeError(f"unknown feed-forward variant {variant!r}")
        bound = 1.0 / np.sqrt(d_in)
        self.w1 = Parameter(rng.uniform(-bound, bound, size=(d_in, d_hidden)), f"{name}.w1")
        self.w2 = None
        if variant == "swiglu":
            self.w2 = Parameter(rng.uniform(-bound, bound, size=(d_in, d_hidden)), f"{name}.w2")
        hidden_bound = 1.0 / np.sqrt(d_hidden)
        self.w3 = Parameter(rng.uniform(-hidden_bound, hidden_bound, size=(d_hidden, d_out)), f"{name}.w3")
        self.variant = variant

    def __call__(self, x: Tensor) -> Tensor:
        if self.variant == "relu":
            return (x @ self.w1).relu() @ self.w3
        return ((x @ self.w1).silu() * (x @ self.w2)) @ self.w3


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    if rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    return x * Tensor(mask)
