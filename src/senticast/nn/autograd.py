"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps one array.  While gradients are enabled, the output of an
op records one edge per input that requires a gradient: the input (in
`_prev`) and its vector-Jacobian product (in `_vjps`), a map from the
output's gradient to that input's share of it.  No edge refers to the
output tensor, so a graph holds no reference cycle and is freed by
reference counting as soon as its last tensor is dropped.  Calling
backward() on a scalar output topologically orders the graph and visits
each op exactly once in reverse, accumulating gradients into its inputs;
a second call on the same graph raises instead of adding the gradients
again.  A Parameter owns its gradient array (while training, a view into
the gradient vector of `optim.ParamArena`), so its gradients are added
into that array in place.  Any other tensor takes its first incoming
array as is and rebinds to a fresh sum at its second; later gradients
add into that sum in place, so an array that an op handed on is never
written.  A slice's gradient is added into its input's array at the
slice, without a full-size array of zeros.  Leaves hand nothing on, so
backward() orders only the ops.  The op set is the minimum the
forecasting blocks need; six ops fuse a block into one node with a
numpy backward: `affine` (x @ W + b), `gated_residual` (a gated residual
network after its transform), `lstm_sequence` (one LSTM layer over a
whole sequence), `attention` (multi-head scaled dot-product attention
from the projected inputs to the merged heads), `scalar_embed` (every
scalar input times its own weight row plus bias) and `variable_mixture`
(each variable's GRN and the variable-selection weighted sum, one
variable at a time, through the GRN arithmetic `gated_residual` uses).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import GraphReuseError, ShapeError

_recording = True  # process-wide: no_grad turns it off for every thread
NORM_EPS = 1e-8


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._prev: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._prev and node.grad is not None:
                raise GraphReuseError(
                    "backward() through a graph that was already backpropagated; rebuild it from its inputs"
                )
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if child._prev and id(child) not in visited:  # a leaf hands nothing on, so it needs no place
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        owned: set[int] = set()  # ids of non-parameters whose gradient array no op was handed
        for node in reversed(topo):
            for parent, vjp in zip(node._prev, node._vjps):
                _accumulate(parent, vjp(node.grad), owned)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        return _result(self.data + other.data, (self, _same), (other, _same))

    __radd__ = __add__

    def __mul__(self, other):
        other = _wrap(other)
        return _result(
            self.data * other.data, (self, lambda grad: grad * other.data), (other, lambda grad: grad * self.data)
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        other = _wrap(other)
        return _result(self.data - other.data, (self, _same), (other, np.negative))

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise ShapeError("only scalar exponents are supported")
        return _result(self.data ** exponent, (self, lambda grad: grad * exponent * self.data ** (exponent - 1)))

    def __matmul__(self, other):
        other = _wrap(other)
        return _result(
            self.data @ other.data,
            (self, lambda grad: grad @ np.swapaxes(other.data, -1, -2)),
            (other, lambda grad: np.swapaxes(self.data, -1, -2) @ grad),
        )

    # -- reductions and shape ops -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def vjp(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return np.broadcast_to(grad, self.data.shape)

        return _result(self.data.sum(axis=axis, keepdims=keepdims), (self, vjp))

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _result(self.data.reshape(shape), (self, lambda grad: grad.reshape(self.data.shape)))

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(int(np.argsort(axes)[i]) for i in range(len(axes)))
        return _result(np.transpose(self.data, axes), (self, lambda grad: np.transpose(grad, inverse)))

    def __getitem__(self, index):
        return _result(self.data[index], (self, lambda grad: _Slice(index, grad)))

    def repeat_rows(self, count: int):
        """Repeat each leading-axis row `count` times (backward sums the copies)."""
        rows, rest = self.data.shape[0], self.data.shape[1:]
        return _result(
            np.repeat(self.data, count, axis=0), (self, lambda grad: grad.reshape(rows, count, *rest).sum(axis=1))
        )

    # -- nonlinearities -------------------------------------------------------

    def tanh(self):
        value = np.tanh(self.data)
        return _result(value, (self, lambda grad: grad * (1.0 - value * value)))

    def sigmoid(self):
        value = _sigmoid(self.data)
        return _result(value, (self, lambda grad: grad * value * (1.0 - value)))

    def relu(self):
        return _result(np.maximum(self.data, 0.0), (self, lambda grad: grad * (self.data > 0.0)))

    def silu(self):
        sig = _sigmoid(self.data)
        return _result(self.data * sig, (self, lambda grad: grad * (sig + self.data * sig * (1.0 - sig))))

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        value = exps / exps.sum(axis=axis, keepdims=True)

        def vjp(grad):
            inner = (grad * value).sum(axis=axis, keepdims=True)
            return (grad - inner) * value

        return _result(value, (self, vjp))


class Parameter(Tensor):
    """Named trainable tensor; its gradient array is its own and is added to in place."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    edges, start = [], 0
    for tensor in tensors:
        stop = start + tensor.data.shape[axis]
        edges.append((tensor, lambda grad, part=lead + (slice(start, stop),): grad[part]))
        start = stop
    return _result(data, *edges)


def affine(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """x @ weight (+ bias) on the trailing axis, as one op with the bits of the matmul-then-add pair."""
    out = x.data @ weight.data
    if bias is not None:
        out += bias.data
    return _result(
        out,
        (x, lambda grad: grad @ weight.data.T),
        (weight, lambda grad: _flat(x.data).T @ _flat(grad)),
        (bias, lambda grad: _flat(grad).sum(axis=0)),
    )


def gated_residual(a: Tensor, x: Tensor, gate_w: Tensor, gate_b: Tensor, skip_w: Tensor | None,
                   gain: Tensor, shift: Tensor | None, mask: np.ndarray | None) -> Tensor:
    """norm(residual + mask * u * sigmoid(v)), [u, v] = a @ gate_w + gate_b, as one op.

    The residual is x @ skip_w, or x when skip_w is None; the mask is an
    optional dropout multiplier; the norm is RMSNorm, or LayerNorm when
    `shift` is given.  The forward runs that composition's expressions in
    its order, in place: the same bits from fewer live arrays.
    """
    params = (gate_w, gate_b, skip_w, gain, shift)
    d = gain.shape[-1]
    if gate_w.shape != (a.shape[-1], 2 * d) or (x.shape[-1] if skip_w is None else skip_w.shape[-1]) != d:
        raise ShapeError(f"grn dims: transform {a.shape}, gate {gate_w.shape}, residual {x.shape}, norm {d}")
    out, saved = _grn_forward(a.data, x.data, _arrays(params), mask)
    grads = _per_grad(lambda grad: _grn_backward(grad, a.data, x.data, _arrays(params), saved))
    return _result(out, *((t, lambda grad, j=j: grads(grad)[j]) for j, t in enumerate((a, x) + params)))


def lstm_sequence(seq: Tensor, w_x: Tensor, bias: Tensor, w_h: Tensor) -> Tensor:
    """One LSTM layer over a whole (batch, time, features) sequence, as one op.

    Gates sit along the 4*hidden axis as [input, forget, candidate, output]
    and the state starts at zero.  The forward adds x @ w_x + bias for all
    timesteps to h @ w_h step by step: the same expressions, in the same
    order, as the per-step composition of matmul, slice, sigmoid and tanh
    ops, so it gives the same bits.  The backward runs backpropagation
    through time once per incoming gradient; the four input edges share its
    gate gradients.
    """
    x, wx, wh = seq.data, w_x.data, w_h.data
    hd = wh.shape[0]
    if x.ndim != 3 or wx.shape != (x.shape[-1], 4 * hd) or wh.shape != (hd, 4 * hd) or bias.shape != (4 * hd,):
        raise ShapeError(f"lstm layer dims: input {x.shape}, w_x {wx.shape}, bias {bias.shape}, w_h {wh.shape}")
    batch, steps, _ = x.shape
    gates = x @ wx + bias.data  # each step's slice is overwritten by its activated gates
    tanh_c = np.empty((batch, steps, hd))
    cells = np.empty((batch, steps, hd))
    out = np.empty((batch, steps, hd))
    h = np.zeros((batch, hd))
    c = np.zeros((batch, hd))
    for t in range(steps):
        gate = gates[:, t]
        z = gate + h @ wh
        gate[...] = _sigmoid(z)
        gate[:, 2 * hd : 3 * hd] = np.tanh(z[:, 2 * hd : 3 * hd])
        c = gate[:, hd : 2 * hd] * c + gate[:, :hd] * gate[:, 2 * hd : 3 * hd]
        cells[:, t] = c
        tanh_c[:, t] = np.tanh(c)
        h = gate[:, 3 * hd :] * tanh_c[:, t]
        out[:, t] = h

    @_per_grad
    def gate_grads(grad: np.ndarray) -> np.ndarray:
        """Gradient of the gate pre-activations, (batch, steps, 4*hidden)."""
        local = gates * (1.0 - gates)
        candidate = gates[..., 2 * hd : 3 * hd]
        local[..., 2 * hd : 3 * hd] = 1.0 - candidate * candidate
        c_prev = np.concatenate([np.zeros((batch, 1, hd)), cells[:, :-1]], axis=1)
        # per gate block, dz = [dc, dc, dc, dh] * partner (local derivative folded in)
        partner = np.concatenate([candidate, c_prev, gates[..., :hd], tanh_c], axis=-1) * local
        through = gates[..., 3 * hd :] * (1.0 - tanh_c * tanh_c)  # dc/dh within a step
        forget = gates[..., hd : 2 * hd]
        dz = np.empty((batch, steps, 4 * hd))
        upstream = np.empty((batch, 4, hd))
        dh_next = np.zeros((batch, hd))
        carry = np.zeros((batch, hd))  # dc reaching step t from step t + 1
        for t in reversed(range(steps)):
            dh = grad[:, t] + dh_next
            dc = dh * through[:, t] + carry
            upstream[:, :3] = dc[:, None]
            upstream[:, 3] = dh
            np.multiply(upstream.reshape(batch, 4 * hd), partner[:, t], out=dz[:, t])
            carry = dc * forget[:, t]
            dh_next = dz[:, t] @ wh.T
        return dz

    def w_h_grad(grad: np.ndarray) -> np.ndarray:
        h_prev = np.concatenate([np.zeros((batch, 1, hd)), out[:, :-1]], axis=1)
        return _flat(h_prev).T @ _flat(gate_grads(grad))

    return _result(
        out,
        (seq, lambda grad: gate_grads(grad) @ wx.T),
        (w_x, lambda grad: _flat(x).T @ _flat(gate_grads(grad))),
        (bias, lambda grad: gate_grads(grad).sum(axis=(0, 1))),
        (w_h, w_h_grad),
    )


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None, n_heads: int,
              return_weights: bool = False):
    """softmax(q kᵀ / sqrt(head_dim) + mask) v per head, heads merged, as one op.

    q is (batch, len_q, hidden) and k, v are (batch, len_k, hidden); the
    trailing axis splits into n_heads heads.  The optional additive mask
    broadcasts to (len_q, len_k).  The forward evaluates the expressions of
    the reshape, permute, matmul, scale, mask and softmax composition in its
    order, in place; the backward keeps only the softmax weights and the
    inputs.  With return_weights, also returns the (batch, n_heads, len_q,
    len_k) weights as a plain array.
    """
    batch, len_q, hidden = q.shape
    len_k = k.shape[1]
    if hidden % n_heads or k.shape != (batch, len_k, hidden) or v.shape != k.shape:
        raise ShapeError(f"attention dims: q {q.shape}, k {k.shape}, v {v.shape}, {n_heads} heads")
    head_dim = hidden // n_heads
    scale = 1.0 / np.sqrt(head_dim)

    def heads(x: np.ndarray) -> np.ndarray:
        return np.transpose(x.reshape(batch, x.shape[1], n_heads, head_dim), (0, 2, 1, 3))

    def merge(x: np.ndarray) -> np.ndarray:
        return np.transpose(x, (0, 2, 1, 3)).reshape(batch, x.shape[2], hidden)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    weights = qh @ np.transpose(kh, (0, 1, 3, 2))
    weights *= scale
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = merge(weights @ vh)

    @_per_grad
    def scores_grad(grad: np.ndarray) -> np.ndarray:
        """Gradient of the unscaled scores q kᵀ, (batch, heads, len_q, len_k)."""
        dw = heads(grad) @ np.transpose(vh, (0, 1, 3, 2))
        ds = (dw - (dw * weights).sum(axis=-1, keepdims=True)) * weights
        ds *= scale
        return ds

    result = _result(
        out,
        (q, lambda grad: merge(scores_grad(grad) @ kh)),
        (k, lambda grad: merge(np.transpose(scores_grad(grad), (0, 1, 3, 2)) @ qh)),
        (v, lambda grad: merge(np.transpose(weights, (0, 1, 3, 2)) @ heads(grad))),
    )
    return (result, weights) if return_weights else result


def scalar_embed(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """(rows, n) scalars -> (rows, n, d): column i times weights[i] (1, d) plus biases[i] (d,), as one op.

    x[:, :, None] * w + b gives the bits of each column's (rows, 1) @ (1, d)
    matmul plus bias; its output reshapes to the (rows, n * d) concatenation
    of those n projections without a copy.
    """
    n = x.shape[-1]
    if x.data.ndim != 2 or len(weights) != n or len(biases) != n:
        raise ShapeError(f"scalar embedding of {x.shape} needs one weight and bias per column")
    w = np.concatenate([p.data for p in weights])
    out = x.data[:, :, None] * w
    out += np.stack([p.data for p in biases])

    def weight_grad(grad: np.ndarray, i: int) -> np.ndarray:
        return x.data[:, i : i + 1].T @ grad[:, i, :]

    return _result(
        out,
        (x, lambda grad: (grad * w).sum(axis=-1)),
        *((p, lambda grad, i=i: weight_grad(grad, i)) for i, p in enumerate(weights)),
        *((p, lambda grad, i=i: grad[:, i, :].sum(axis=0)) for i, p in enumerate(biases)),
    )


def variable_mixture(weights: Tensor, embedded: Tensor, grns: Sequence[Sequence[Tensor | None]],
                     masks: Sequence[np.ndarray | None]) -> Tensor:
    """Σ_i weights[:, i:i+1] * GRN_i(embedded[:, i, :]), added in order, as one op.

    grns[i] is (fc1_w, fc1_b, gate_w, gate_b, skip_w, gain, shift), and
    GRN_i(e) is `gated_residual(silu(e @ fc1_w + fc1_b), e, ...)` with
    dropout mask masks[i].  Variables run one at a time through the
    expressions of that composition and of the slice, multiply and add
    chain, so the forward gives their bits; under no_grad nothing of a
    variable is kept.  One backward pass yields the weights' gradient, the
    whole embedded gradient and one gradient per GRN parameter.
    """
    w, e = weights.data, embedded.data
    n = e.shape[1] if e.ndim == 3 else -1
    if w.shape != e.shape[:2] or len(grns) != n or len(masks) != n:
        raise ShapeError(f"mixture of {w.shape} weights, {e.shape} inputs, {len(grns)} grns, {len(masks)} masks")
    out, kept = None, []
    for i, (grn, mask) in enumerate(zip(grns, masks)):
        fc1_w, fc1_b, *rest = _arrays(grn)
        pre = e[:, i, :] @ fc1_w
        pre += fc1_b
        term, saved = _grn_forward(pre * _sigmoid(pre), e[:, i, :], rest, mask)
        part = w[:, i : i + 1] * term
        out = part if out is None else np.add(out, part, out=out)
        if _recording:
            kept.append((pre, saved))
        del pre, term, part, saved  # the next variable is made with this one's arrays gone

    @_per_grad
    def grads(grad: np.ndarray) -> tuple:
        """Gradients of the weights, of embedded, and of each GRN's seven parameters."""
        d_w, d_e, d_grns = np.empty_like(w), np.empty_like(e), []
        for i, (grn, (pre, saved)) in enumerate(zip(grns, kept)):
            fc1_w, _, *rest = _arrays(grn)
            sig = _sigmoid(pre)  # made again rather than kept for every variable
            term = saved[1] * rest[3] if rest[4] is None else saved[1] * rest[3] + rest[4]  # the GRN's output
            d_w[:, i] = (grad * term).sum(axis=-1)
            da, dx, *d_rest = _grn_backward(grad * w[:, i : i + 1], pre * sig, e[:, i, :], rest, saved)
            d_pre = da * (sig + pre * sig * (1.0 - sig))
            d_e[:, i, :] = d_pre @ fc1_w.T + dx
            d_grns.append((_flat(e[:, i, :]).T @ _flat(d_pre), _flat(d_pre).sum(axis=0), *d_rest))
        return d_w, d_e, d_grns

    edges = ((p, lambda grad, i=i, j=j: grads(grad)[2][i][j]) for i, grn in enumerate(grns) for j, p in enumerate(grn))
    return _result(out, (weights, lambda grad: grads(grad)[0]), (embedded, lambda grad: grads(grad)[1]), *edges)


def zero_grads(params: Iterable[Tensor]) -> None:
    """Drop each gradient.  A packed parameter then leaves its arena, whose next adam_step raises."""
    for p in params:
        p.grad = None


# -- internals ----------------------------------------------------------------

_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_basic(index) -> bool:
    """True for an int, slice, Ellipsis or None, alone or in a tuple."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(part, _BASIC_INDEX) for part in parts)


def _arrays(tensors: Iterable[Tensor | None]) -> list[np.ndarray | None]:
    return [None if t is None else t.data for t in tensors]


def _grn_forward(a: np.ndarray, x: np.ndarray, params: Sequence, mask: np.ndarray | None) -> tuple[np.ndarray, tuple]:
    """`gated_residual`'s forward on arrays, params (gate_w, gate_b, skip_w, gain, shift): out, what backward reads."""
    gate_w, gate_b, skip_w, gain, shift = params
    d = gain.shape[-1]
    gated = a @ gate_w
    gated += gate_b
    gated[..., d:] = _sigmoid(gated[..., d:])  # the v half now holds sigmoid(v)
    z = gated[..., :d] * gated[..., d:]
    if mask is not None:
        z *= mask
    z += x if skip_w is None else x @ skip_w
    if shift is not None:
        z -= z.sum(axis=-1, keepdims=True) * (1.0 / d)
    scale = ((z * z).sum(axis=-1, keepdims=True) * (1.0 / d) + NORM_EPS) ** -0.5
    z *= scale  # z now holds the normed sum
    out = z * gain
    if shift is not None:
        out += shift
    return out, (gated, z, scale, mask)


def _grn_backward(grad: np.ndarray, a: np.ndarray, x: np.ndarray, params: Sequence, saved: tuple) -> tuple:
    """Gradients of `gated_residual`'s inputs, in its order: a, x, gate_w, gate_b, skip_w, gain, shift."""
    gate_w, _, skip_w, gain, shift = params
    gated, z, scale, mask = saved
    d = gain.shape[-1]
    u, sig = gated[..., :d], gated[..., d:]
    dn = grad * gain
    dz = dn - z * ((dn * z).sum(axis=-1, keepdims=True) * (1.0 / d))
    if shift is not None:
        dz -= dn.sum(axis=-1, keepdims=True) * (1.0 / d)
    dz *= scale
    dg = dz if mask is None else dz * mask
    d_gated = np.concatenate([dg * sig, dg * u * sig * (1.0 - sig)], axis=-1)
    return (
        d_gated @ gate_w.T,
        dz if skip_w is None else dz @ skip_w.T,
        _flat(a).T @ _flat(d_gated),
        _flat(d_gated).sum(axis=0),
        None if skip_w is None else _flat(x).T @ _flat(dz),
        _flat(grad * z).sum(axis=0),
        None if shift is None else _flat(grad).sum(axis=0),
    )


def _per_grad(fn: Callable) -> Callable:
    """`fn` run once per incoming gradient array (keyed by identity), so an op's edges share one result."""
    cached: list = []

    def memo(grad: np.ndarray):
        if not cached or cached[0] is not grad:
            cached[:] = [grad, fn(grad)]
        return cached[1]

    return memo


def _same(grad: np.ndarray) -> np.ndarray:
    return grad


def _flat(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _result(data: np.ndarray, *edges: tuple[Tensor | None, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The output of an op; each edge is (input, vjp), kept while recording if the input is given and needs a gradient."""
    out = Tensor(data)
    edges = [edge for edge in edges if edge[0] is not None and edge[0].requires_grad] if _recording else []
    if edges:
        out.requires_grad = True
        out._prev, out._vjps = zip(*edges)
    return out


class _Slice:
    """The gradient of `tensor[index]`: zero outside the index, `values` inside."""

    __slots__ = ("index", "values")

    def __init__(self, index, values: np.ndarray):
        self.index = index
        self.values = values


def _accumulate(tensor: Tensor, grad: np.ndarray | _Slice, owned: set[int]) -> None:
    # A parameter's gradient is its own array (an arena view, or a copy made
    # on first touch), so adding in place is safe.  Any other tensor shares
    # the incoming array on first touch, which another node may also hold,
    # so it rebinds at its second; that sum is its own (`owned`), and later
    # gradients add into it in place.  All of them arrive before the tensor's
    # own vjps hand its gradient on.
    mine = isinstance(tensor, Parameter) or id(tensor) in owned
    if isinstance(grad, _Slice):
        if tensor.grad is None or not mine:
            tensor.grad = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad.copy()
            owned.add(id(tensor))
        if _is_basic(grad.index):  # selects each element at most once
            tensor.grad[grad.index] += grad.values
        else:  # a fancy index can repeat a row, so its copies add up
            np.add.at(tensor.grad, grad.index, grad.values)
        return
    grad = _unbroadcast(grad, tensor.data.shape)
    if tensor.grad is None:
        tensor.grad = grad.copy() if isinstance(tensor, Parameter) else grad
    elif mine:
        tensor.grad += grad
    else:
        tensor.grad = tensor.grad + grad
        owned.add(id(tensor))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; max(e, x >= 0) is 1 for x >= 0, else e (NaN stays NaN).
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.maximum(e, x >= 0) / denom
