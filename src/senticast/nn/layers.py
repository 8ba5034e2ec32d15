"""Parameterized layers: linear maps, norms, gated feed-forward, dropout masks."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .autograd import Parameter, Tensor, affine


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
        return affine(x, self.weight, self.bias)


class RMSNorm(Module):
    """Learned gain of y_i = gain_i * x_i / sqrt(mean(x^2) + eps); `autograd.gated_residual` applies it."""

    shift = None

    def __init__(self, dim: int, name: str):
        self.gain = Parameter(np.ones(dim), f"{name}.gain")


class LayerNorm(Module):
    """Learned gain and shift of standard layer normalization; `autograd.gated_residual` applies it."""

    def __init__(self, dim: int, name: str):
        self.gain = Parameter(np.ones(dim), f"{name}.gain")
        self.shift = Parameter(np.zeros(dim), f"{name}.shift")


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


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray | None:
    """Inverted-dropout multipliers (0 or 1/keep), or None at rate 0; draw only in training mode."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep
