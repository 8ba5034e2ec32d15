"""Gated residual networks, LSTM, attention, and variable selection.

All blocks operate on batched rows: a leading axis of independent samples
(or sample-timesteps) and a trailing feature axis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError, ShapeError
from .autograd import Tensor, attention, gated_residual, lstm_sequence, mixture, scalar_embed
from .layers import Linear, Module, SwigluFF, dropout_mask, make_norm


class GatedResidualNetwork(Module):
    """activation -> GLU gate -> residual -> norm, the last four as one op.

    The default transform is silu(W_a x + W_c context + b_a); silu is
    smooth everywhere, which keeps finite-difference gradient checks valid
    at any data point.  Passing ff_variant swaps the transform for a gated
    feed-forward block (no context on that path).  Inputs whose width
    differs from the output are projected onto the residual.
    """

    def __init__(
        self,
        d_in: int,
        d_hidden: int,
        d_out: int,
        name: str,
        rng: np.random.Generator,
        d_context: int | None = None,
        dropout_rate: float = 0.0,
        norm_type: str = "rmsnorm",
        ff_variant: str | None = None,
    ):
        self.d_in = d_in
        self.d_out = d_out
        self.dropout_rate = dropout_rate
        self.ff = None
        self.fc1 = None
        self.context_proj = None
        if ff_variant is None:
            self.fc1 = Linear(d_in, d_hidden, f"{name}.fc1", rng)
            if d_context is not None:
                self.context_proj = Linear(d_context, d_hidden, f"{name}.ctx", rng, bias=False)
        else:
            if d_context is not None:
                raise ConfigError("feed-forward GRN variant does not take a context input")
            self.ff = SwigluFF(d_in, d_hidden, d_hidden, ff_variant, f"{name}.ff", rng)
        self.gate = Linear(d_hidden, 2 * d_out, f"{name}.gate", rng)
        self.skip = Linear(d_in, d_out, f"{name}.skip", rng, bias=False) if d_in != d_out else None
        self.norm = make_norm(norm_type, d_out, f"{name}.norm")

    def __call__(
        self,
        x: Tensor,
        context: Tensor | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"grn expected input dim {self.d_in}, got {x.shape[-1]}")
        if self.ff is not None:
            a = self.ff(x)
        else:
            pre = self.fc1(x)
            if context is not None:
                if self.context_proj is None:
                    raise ShapeError("grn was built without a context projection")
                pre = pre + self.context_proj(context)
            a = pre.silu()
        if training and self.dropout_rate > 0.0 and rng is None:
            raise ConfigError("training-mode GRN needs a dropout rng")
        mask = dropout_mask(a.shape[:-1] + (self.d_out,), self.dropout_rate, rng) if training else None
        skip_w = self.skip.weight if self.skip is not None else None
        return gated_residual(a, x, self.gate.weight, self.gate.bias, skip_w, self.norm.gain, self.norm.shift, mask)


class LstmCell(Module):
    """The weights of one LSTM layer: input and recurrent maps onto the four gates."""

    def __init__(self, d_in: int, hidden: int, name: str, rng: np.random.Generator):
        self.hidden = hidden
        self.wx = Linear(d_in, 4 * hidden, f"{name}.wx", rng)
        self.wh = Linear(hidden, 4 * hidden, f"{name}.wh", rng, bias=False)


class LstmEncoder(Module):
    """Stacked unidirectional LSTM over (batch, time, features), one op per layer."""

    def __init__(self, d_in: int, hidden: int, layers: int, name: str, rng: np.random.Generator):
        if layers < 1:
            raise ConfigError(f"lstm needs >= 1 layer, got {layers}")
        self.cells = [
            LstmCell(d_in if i == 0 else hidden, hidden, f"{name}.layer{i}", rng)
            for i in range(layers)
        ]
        self.hidden = hidden

    def __call__(self, seq: Tensor) -> Tensor:
        for cell in self.cells:
            seq = lstm_sequence(seq, cell.wx.weight, cell.wx.bias, cell.wh.weight)
        return seq


class MultiHeadAttention(Module):
    def __init__(self, hidden: int, n_heads: int, name: str, rng: np.random.Generator):
        if hidden % n_heads != 0:
            raise ConfigError(f"hidden size {hidden} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.proj_q = Linear(hidden, hidden, f"{name}.q", rng)
        # No key bias: a shared key offset shifts all scores of a query
        # equally and cancels in the softmax.
        self.proj_k = Linear(hidden, hidden, f"{name}.k", rng, bias=False)
        self.proj_v = Linear(hidden, hidden, f"{name}.v", rng)
        self.proj_out = Linear(hidden, hidden, f"{name}.out", rng)

    def __call__(
        self,
        queries: Tensor,
        keys: Tensor,
        values: Tensor,
        mask: np.ndarray | None = None,
        return_weights: bool = False,
    ):
        """Attend from each query position; with return_weights also the (batch, heads, len_q, len_k) array."""
        q, k, v = self.proj_q(queries), self.proj_k(keys), self.proj_v(values)
        if not return_weights:
            return self.proj_out(attention(q, k, v, mask, self.n_heads))
        attended, weights = attention(q, k, v, mask, self.n_heads, return_weights=True)
        return self.proj_out(attended), weights


class VariableSelection(Module):
    """Softmax-weighted mixture of per-variable GRN transforms of scalar inputs.

    Each of the n_vars scalar inputs is embedded by its own Linear(1, d_var)
    map, all in one op; the selection weights come from a GRN over the
    concatenated embeddings, optionally conditioned on a static context
    (TFT's variable selection, Lim et al. 2021, section 4.2).  The mixture
    is one op that, under no_grad, adds each variable's GRN output as soon
    as it is made.
    """

    def __init__(
        self,
        n_vars: int,
        d_var: int,
        hidden: int,
        name: str,
        rng: np.random.Generator,
        d_context: int | None = None,
        dropout_rate: float = 0.0,
        norm_type: str = "rmsnorm",
    ):
        if n_vars < 1:
            raise ConfigError(f"variable selection needs >= 1 variable, got {n_vars}")
        self.n_vars = n_vars
        self.flat_grn = GatedResidualNetwork(
            n_vars * d_var,
            hidden,
            n_vars,
            f"{name}.flat",
            rng,
            d_context=d_context,
            dropout_rate=dropout_rate,
            norm_type=norm_type,
        )
        self.var_grns = [
            GatedResidualNetwork(
                d_var, hidden, hidden, f"{name}.var{i}", rng,
                dropout_rate=dropout_rate, norm_type=norm_type,
            )
            for i in range(n_vars)
        ]

    def __call__(
        self,
        x: Tensor,
        projections: Sequence[Linear],
        context: Tensor | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        """x: (rows, n_vars) scalars; projections[i], a Linear(1, d_var), embeds column i.

        Returns the (rows, hidden) mixture and the (rows, n_vars) weights.
        """
        if x.shape[-1] != self.n_vars or len(projections) != self.n_vars:
            raise ShapeError(f"expected {self.n_vars} variables, got {x.shape[-1]} and {len(projections)} maps")
        embedded = scalar_embed(x, [p.weight for p in projections], [p.bias for p in projections])
        rows, _, d_var = embedded.shape
        logits = self.flat_grn(embedded.reshape(rows, self.n_vars * d_var), context, training=training, rng=rng)
        weights = logits.softmax(axis=-1)
        terms = (grn(embedded[:, i, :], training=training, rng=rng) for i, grn in enumerate(self.var_grns))
        return mixture(weights, terms), weights
