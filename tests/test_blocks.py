from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import (
    adam_reference,
    attention_composed,
    causal_mask,
    grn_composed,
    layernorm,
    lstm_unrolled,
    rmsnorm,
    vsn_composed,
)
from gradcheck import gradcheck
from senticast.errors import ConfigError, ShapeError, TrainingError
from senticast.nn import (
    GatedResidualNetwork,
    LstmEncoder,
    Module,
    MultiHeadAttention,
    ParamArena,
    Parameter,
    SwigluFF,
    Tensor,
    VariableSelection,
    adam_step,
    dropout_mask,
    zero_grads,
)
from senticast.nn.autograd import attention, gated_residual, no_grad, scalar_embed, variable_mixture
from senticast.nn.layers import LayerNorm, Linear


def zero_params(block) -> None:
    for p in block.parameters():
        p.data[...] = 0.0


class TestModule:
    def test_parameters_follow_attribute_order(self):
        class Leaf(Module):
            def __init__(self, name):
                self.weight = Parameter(np.zeros(1), f"{name}.weight")
                self.unused = None

        class Inner(Module):
            def __init__(self):
                self.scale = Parameter(np.ones(1), "inner.scale")
                self.leaf = Leaf("inner.leaf")

        class Outer(Module):
            def __init__(self):
                self.width = 3
                self.bias = Parameter(np.zeros(2), "outer.bias")
                self.skip = None
                self.leaves = [Leaf("outer.leaf0"), Leaf("outer.leaf1")]
                self.inner = Inner()
                self.gain = Parameter(np.ones(2), "outer.gain")

        names = [p.name for p in Outer().parameters()]
        assert names == [
            "outer.bias", "outer.leaf0.weight", "outer.leaf1.weight", "inner.scale", "inner.leaf.weight", "outer.gain"
        ]


class TestRmsNorm:
    def test_uniform_vector_normalizes_to_ones(self):
        out = rmsnorm(Tensor([3.0, 3.0, 3.0]), Tensor([1.0, 1.0, 1.0]))
        assert np.allclose(out.data, 1.0)

    def test_zero_input_stays_zero(self):
        out = rmsnorm(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [0.0, 0.0])

    def test_hand_case(self):
        out = rmsnorm(Tensor([1.0, -1.0]), Tensor([2.0, 2.0]))
        assert np.allclose(out.data, [2.0, -2.0], atol=1e-7)

    def test_scale_invariance_above_epsilon(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8) + 2.0
        gain = rng.normal(size=8)
        base = rmsnorm(Tensor(x), Tensor(gain)).data
        for c in (3.0, 17.5, 400.0):
            scaled = rmsnorm(Tensor(c * x), Tensor(gain)).data
            assert np.allclose(scaled, base, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            rmsnorm(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_gradcheck_over_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = Parameter(rng.normal(size=6), "x")
            gain = Parameter(rng.normal(size=6), "gain")
            report = gradcheck(lambda: (rmsnorm(x, gain) ** 2).sum(), [x, gain])
            assert report.passed, (seed, report.summary())


def swiglu_block(variant: str, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray) -> SwigluFF:
    """A SwigluFF whose weights are the given arrays (w2 is unused by relu)."""
    block = SwigluFF(w1.shape[0], w1.shape[1], w3.shape[1], variant, "ff", np.random.default_rng(0))
    block.w1.data[...] = w1
    if block.w2 is not None:
        block.w2.data[...] = w2
    block.w3.data[...] = w3
    return block


class TestSwiglu:
    def test_zero_input_zero_output_both_variants(self):
        rng = np.random.default_rng(1)
        w1 = rng.normal(size=(4, 6))
        w2 = rng.normal(size=(4, 6))
        w3 = rng.normal(size=(6, 2))
        x = Tensor(np.zeros((1, 4)))
        for variant in ("swiglu", "relu"):
            assert np.array_equal(swiglu_block(variant, w1, w2, w3)(x).data, np.zeros((1, 2)))

    def test_scalar_silu_value(self):
        one = np.ones((1, 1))
        out = swiglu_block("swiglu", one, one, one)(Tensor(one))
        assert out.data[0, 0] == pytest.approx(0.731059, abs=1e-6)

    def test_relu_cutoff(self):
        x = Tensor(np.ones((1, 3)))
        w1 = -np.ones((3, 5))  # all pre-activations negative
        w3 = np.ones((5, 2))
        out = swiglu_block("relu", w1, w1, w3)(x)
        assert np.array_equal(out.data, np.zeros((1, 2)))

    def test_unknown_variant(self):
        with pytest.raises(ShapeError):
            SwigluFF(1, 1, 1, "gelu", "ff", np.random.default_rng(0))

    def test_gradcheck_both_variants(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            block_s = SwigluFF(4, 6, 3, "swiglu", "ffs", rng)
            block_r = SwigluFF(4, 6, 3, "relu", "ffr", rng)
            x = Parameter(rng.normal(size=(2, 4)), "x")
            for block in (block_s, block_r):
                report = gradcheck(lambda: (block(x) ** 2).sum(), [x] + block.parameters())
                assert report.passed, (seed, block.variant, report.summary())


class TestGrn:
    def test_zero_weights_reduce_to_normed_input(self):
        rng = np.random.default_rng(2)
        for norm_type in ("rmsnorm", "layernorm"):
            grn = GatedResidualNetwork(4, 4, 4, "grn", rng, norm_type=norm_type)
            zero_params(grn)
            x = Tensor(rng.normal(size=(3, 4)))
            out = grn(x)
            norm = grn.norm
            expected = rmsnorm(x, norm.gain) if norm.shift is None else layernorm(x, norm.gain, norm.shift)
            # gain is zeroed too, so both sides are the zero vector
            assert np.array_equal(out.data, expected.data)
            assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_context_free_path_well_defined(self):
        rng = np.random.default_rng(3)
        grn = GatedResidualNetwork(5, 8, 5, "grn", rng)
        out = grn(Tensor(rng.normal(size=(2, 5))))
        assert out.shape == (2, 5)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("hidden", [4, 8, 16])
    def test_output_shape_matches_input(self, hidden):
        rng = np.random.default_rng(4)
        grn = GatedResidualNetwork(hidden, hidden, hidden, "grn", rng)
        out = grn(Tensor(rng.normal(size=(3, hidden))))
        assert out.shape == (3, hidden)

    def test_projected_residual_when_dims_differ(self):
        rng = np.random.default_rng(5)
        grn = GatedResidualNetwork(6, 8, 3, "grn", rng)
        out = grn(Tensor(rng.normal(size=(2, 6))))
        assert out.shape == (2, 3)

    def test_context_requires_projection(self):
        rng = np.random.default_rng(6)
        grn = GatedResidualNetwork(4, 4, 4, "grn", rng)
        with pytest.raises(ShapeError):
            grn(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))

    def test_ff_variant_rejects_context(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigError):
            GatedResidualNetwork(4, 4, 4, "grn", rng, d_context=4, ff_variant="swiglu")

    def test_gradcheck_with_context_and_ff_variants(self):
        # A normalized output has constant squared sum under unit gain, so
        # project onto fixed random coefficients to get a non-degenerate loss.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            grn = GatedResidualNetwork(4, 6, 4, "grn", rng, d_context=3)
            x = Parameter(rng.normal(size=(2, 4)), "x")
            ctx = Parameter(rng.normal(size=(2, 3)), "ctx")
            coeff = Tensor(rng.normal(size=(2, 4)))
            report = gradcheck(lambda: (grn(x, ctx) * coeff).sum(), [x, ctx] + grn.parameters())
            assert report.passed, (seed, report.summary())
        for variant in ("swiglu", "relu"):
            rng = np.random.default_rng(100)
            grn = GatedResidualNetwork(4, 6, 4, "grn", rng, ff_variant=variant)
            x = Parameter(np.random.default_rng(101).normal(size=(2, 4)), "x")
            coeff = Tensor(np.random.default_rng(102).normal(size=(2, 4)))
            report = gradcheck(lambda: (grn(x) * coeff).sum(), [x] + grn.parameters())
            assert report.passed, (variant, report.summary())


# One GRN per setting of the fused op: (norm, residual, dropout, transform).
GRN_NORMS = ("rmsnorm", "layernorm")
GRN_RESIDUALS = ("identity", "skip")
GRN_MASKS = ("no-mask", "mask")
GRN_TRANSFORMS = ("silu", "silu-context", "swiglu", "relu")
# Recorded nodes before the fused op: fc1's affine and silu, plus the context
# matmul and add; swiglu's three matmuls, silu and product; relu's two matmuls and relu.
TRANSFORM_NODES = {"silu": 2, "silu-context": 4, "swiglu": 5, "relu": 3}


def grn_case(norm, residual, mask, transform, seed=0, rows=(3,)):
    """A GRN with the given settings, an input and context needing gradients, and a call that fixes the mask."""
    rng = np.random.default_rng(seed)
    d_in = 4 if residual == "identity" else 6
    grn = GatedResidualNetwork(
        d_in, 5, 4, "grn", rng,
        d_context=3 if transform == "silu-context" else None,
        dropout_rate=0.3 if mask == "mask" else 0.0,
        norm_type=norm,
        ff_variant=transform if transform in ("swiglu", "relu") else None,
    )
    x = Parameter(rng.normal(size=rows + (d_in,)), "x")
    ctx = Parameter(rng.normal(size=rows + (3,)), "ctx") if transform == "silu-context" else None

    def call(forward=grn):
        return forward(x, ctx, training=True, rng=np.random.default_rng(seed + 1))

    inputs = [x] + ([ctx] if ctx is not None else [])
    return grn, call, inputs


def op_nodes(root: Tensor) -> int:
    """Recorded ops reachable from root (leaves not counted)."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += bool(node._prev)
        for child in node._prev:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return count


GRN_SETTINGS = [
    (norm, residual, mask, transform)
    for norm in GRN_NORMS for residual in GRN_RESIDUALS for mask in GRN_MASKS for transform in GRN_TRANSFORMS
]
GRN_IDS = ["-".join(case) for case in GRN_SETTINGS]


class TestFusedGrn:
    @pytest.mark.parametrize("setting", GRN_SETTINGS, ids=GRN_IDS)
    def test_gradcheck(self, setting):
        grn, call, inputs = grn_case(*setting)
        coeff = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
        report = gradcheck(lambda: (call() * coeff).sum(), inputs + grn.parameters(), tol=1e-4)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("setting", GRN_SETTINGS, ids=GRN_IDS)
    def test_forward_is_bit_identical_to_composition(self, setting):
        for rows in ((1,), (7,), (512,), (2, 5)):
            grn, call, _ = grn_case(*setting, seed=len(rows) + rows[0], rows=rows)
            expected = call(lambda *a, **k: grn_composed(grn, *a, **k)).data
            assert np.array_equal(call().data, expected), rows

    @pytest.mark.parametrize("setting", GRN_SETTINGS, ids=GRN_IDS)
    def test_gradients_match_composition(self, setting):
        grn, call, inputs = grn_case(*setting, seed=40, rows=(6,))
        coeff = Tensor(np.random.default_rng(41).normal(size=(6, 4)))
        params = inputs + grn.parameters()
        grads = []
        for forward in (grn, lambda *a, **k: grn_composed(grn, *a, **k)):
            zero_grads(params)
            (call(forward) * coeff).sum().backward()
            grads.append([p.grad for p in params])
        for p, fused, composed in zip(params, *grads):
            assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed)), p.name

    @pytest.mark.parametrize("norm", GRN_NORMS)
    def test_three_dim_input(self, norm):
        grn, call, inputs = grn_case(norm, "skip", "mask", "silu-context", seed=50, rows=(2, 3))
        assert call().shape == (2, 3, 4)
        coeff = Tensor(np.random.default_rng(51).normal(size=(2, 3, 4)))
        report = gradcheck(lambda: (call() * coeff).sum(), inputs + grn.parameters(), tol=1e-4)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("setting", GRN_SETTINGS, ids=GRN_IDS)
    def test_one_recorded_node_per_grn(self, setting):
        grn, call, inputs = grn_case(*setting)
        out = call()
        assert op_nodes(out) == TRANSFORM_NODES[setting[3]] + 1
        norm = grn.norm
        expected = [inputs[0], grn.gate.weight, grn.gate.bias, norm.gain]
        expected += [grn.skip.weight] if grn.skip is not None else []
        expected += [norm.shift] if norm.shift is not None else []
        assert all(any(t is e for t in out._prev) for e in expected)
        assert len(out._prev) == len(expected) + 1  # and the transform output

    def test_dims_checked(self):
        grn, _, _ = grn_case("rmsnorm", "skip", "no-mask", "silu")
        a, x = Tensor(np.ones((2, 5))), Tensor(np.ones((2, 6)))
        with pytest.raises(ShapeError):  # identity residual of the wrong width
            gated_residual(a, x, grn.gate.weight, grn.gate.bias, None, grn.norm.gain, None, None)
        with pytest.raises(ShapeError):
            gated_residual(x, x, grn.gate.weight, grn.gate.bias, grn.skip.weight, grn.norm.gain, None, None)


class TestAffine:
    @pytest.mark.parametrize("rows", [(), (5,), (2, 3)], ids=["1d", "2d", "3d"])
    def test_forward_bits_and_gradcheck(self, rows):
        rng = np.random.default_rng(60)
        lin = Linear(4, 3, "lin", rng)
        x = Parameter(rng.normal(size=rows + (4,)), "x")
        out = lin(x)
        assert np.array_equal(out.data, x.data @ lin.weight.data + lin.bias.data)
        assert op_nodes(out) == 1
        coeff = Tensor(rng.normal(size=rows + (3,)))
        report = gradcheck(lambda: (lin(x) * coeff).sum(), [x] + lin.parameters(), tol=1e-4)
        assert report.passed, report.summary()

    def test_bias_free_linear_is_one_matmul(self):
        rng = np.random.default_rng(61)
        lin = Linear(4, 3, "lin", rng, bias=False)
        x = Parameter(rng.normal(size=(2, 5, 4)), "x")
        out = lin(x)
        assert np.array_equal(out.data, x.data @ lin.weight.data)
        assert op_nodes(out) == 1 and len(out._prev) == 2
        report = gradcheck(lambda: (lin(x) ** 2).sum(), [x] + lin.parameters(), tol=1e-4)
        assert report.passed, report.summary()


class TestLstm:
    def test_zero_parameters_force_half_gates(self):
        # Zero weights and gate biases put the input, forget and output gates
        # at 0.5 on every step, so with candidate g = tanh(b_g) the cell state
        # is c_t = 0.5 c_{t-1} + 0.5 g = g (1 - 0.5^t) and h_t = 0.5 tanh(c_t).
        rng = np.random.default_rng(8)
        enc = LstmEncoder(3, 4, layers=1, name="enc", rng=rng)
        zero_params(enc)
        b_g = np.asarray([0.4, -0.8, 1.2, 0.0])
        enc.cells[0].wx.bias.data[8:12] = b_g
        out = enc(Tensor(rng.normal(size=(2, 5, 3))))
        c = np.tanh(b_g) * (1.0 - 0.5 ** np.arange(1, 6))[:, None]
        assert np.allclose(out.data, 0.5 * np.tanh(c), atol=1e-15)

    def test_zero_state_zero_params_stays_zero(self):
        rng = np.random.default_rng(9)
        enc = LstmEncoder(2, 3, layers=2, name="enc", rng=rng)
        zero_params(enc)
        out = enc(Tensor(np.zeros((1, 4, 2))))
        assert np.array_equal(out.data, np.zeros((1, 4, 3)))

    def test_hidden_state_bounded_by_one(self):
        rng = np.random.default_rng(10)
        enc = LstmEncoder(4, 6, layers=1, name="enc", rng=rng)
        out = enc(Tensor(rng.normal(size=(5, 30, 4)) * 3))
        assert np.all(np.abs(out.data) < 1.0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(11)
        enc = LstmEncoder(3, 4, layers=1, name="enc", rng=rng)
        with pytest.raises(ShapeError):
            enc(Tensor(np.ones((1, 5, 2))))
        with pytest.raises(ShapeError):
            enc(Tensor(np.ones((5, 3))))

    def test_gradcheck_over_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            enc = LstmEncoder(3, 4, layers=2, name="enc", rng=rng)
            x = Parameter(rng.normal(size=(2, 4, 3)), "x")
            coeff = Tensor(rng.normal(size=(2, 4, 4)))
            report = gradcheck(lambda: (enc(x) * coeff).sum(), [x] + enc.parameters())
            assert report.passed, (seed, report.summary())

    @pytest.mark.parametrize("layers", [1, 2])
    def test_forward_is_bit_identical_to_unrolled_steps(self, layers):
        for batch, steps in ((1, 1), (3, 6), (32, 15), (512, 15)):
            rng = np.random.default_rng(batch + layers)
            enc = LstmEncoder(16, 16, layers=layers, name="enc", rng=rng)
            seq = Tensor(rng.normal(size=(batch, steps, 16)) * 2.0)
            assert np.array_equal(enc(seq).data, lstm_unrolled(enc, seq).data), (batch, steps)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients_match_unrolled_steps(self, layers):
        rng = np.random.default_rng(30 + layers)
        enc = LstmEncoder(5, 6, layers=layers, name="enc", rng=rng)
        x = Parameter(rng.normal(size=(4, 7, 5)), "x")
        coeff = Tensor(rng.normal(size=(4, 7, 6)))
        params = [x] + enc.parameters()
        grads = []
        for forward in (enc, lambda seq: lstm_unrolled(enc, seq)):
            zero_grads(params)
            (forward(x) * coeff).sum().backward()
            grads.append([p.grad for p in params])
        for p, fused, unrolled in zip(params, *grads):
            assert np.max(np.abs(fused - unrolled)) <= 1e-12 * np.max(np.abs(unrolled)), p.name

    def test_input_without_gradient_still_trains_weights(self):
        rng = np.random.default_rng(33)
        enc = LstmEncoder(3, 4, layers=1, name="enc", rng=rng)
        (enc(Tensor(rng.normal(size=(2, 5, 3)))) ** 2).sum().backward()
        assert all(p.grad is not None and p.grad.shape == p.data.shape for p in enc.parameters())

    def test_stacked_encoder_shapes(self):
        rng = np.random.default_rng(12)
        enc = LstmEncoder(5, 7, layers=2, name="enc", rng=rng)
        out = enc(Tensor(rng.normal(size=(3, 6, 5))))
        assert out.shape == (3, 6, 7)


class TestAttention:
    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(13)
        mha = MultiHeadAttention(8, 2, "attn", rng)
        queries = Tensor(rng.normal(size=(1, 4, 8)))
        keys = Tensor(np.tile(rng.normal(size=(1, 1, 8)), (1, 4, 1)))
        values = Tensor(rng.normal(size=(1, 4, 8)))
        out, weights = mha(queries, keys, values, return_weights=True)
        assert np.allclose(weights, 0.25, atol=1e-12)
        # every output row is the out-projected mean of the projected values
        mean_v = mha.proj_v(values).data.mean(axis=1, keepdims=True)
        expected = mha.proj_out(Tensor(np.tile(mean_v, (1, 4, 1)))).data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_causal_first_position_attends_to_itself(self):
        rng = np.random.default_rng(14)
        mha = MultiHeadAttention(8, 4, "attn", rng)
        x = Tensor(rng.normal(size=(2, 5, 8)))
        _, weights = mha(x, x, x, mask=causal_mask(5), return_weights=True)
        first_row = weights[:, :, 0, :]
        assert np.allclose(first_row[..., 0], 1.0, atol=1e-12)
        assert np.allclose(first_row[..., 1:], 0.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        mha = MultiHeadAttention(6, 3, "attn", rng)
        x = Tensor(rng.normal(size=(3, 7, 6)))
        _, weights = mha(x, x, x, mask=causal_mask(7), return_weights=True)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(6, 4, "attn", np.random.default_rng(0))

    def test_gradcheck_over_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            mha = MultiHeadAttention(8, 2, "attn", rng)
            x = Parameter(rng.normal(size=(2, 4, 8)), "x")
            report = gradcheck(
                lambda: (mha(x, x, x, mask=causal_mask(4)) ** 2).sum(), [x] + mha.parameters()
            )
            assert report.passed, (seed, report.summary())

    @pytest.mark.parametrize("masked", [True, False])
    def test_op_gradcheck(self, masked):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q = Parameter(rng.normal(size=(2, 3, 8)), "q")
            k = Parameter(rng.normal(size=(2, 4, 8)), "k")
            v = Parameter(rng.normal(size=(2, 4, 8)), "v")
            mask = np.triu(np.full((3, 4), -1e30), k=2) if masked else None
            coeff = Tensor(rng.normal(size=(2, 3, 8)))
            report = gradcheck(lambda: (attention(q, k, v, mask, 2) * coeff).sum(), [q, k, v])
            assert report.passed, (seed, masked, report.summary())

    @pytest.mark.parametrize("masked", [True, False])
    def test_op_matches_composition(self, masked):
        rng = np.random.default_rng(21)
        q, k, v = (Parameter(rng.normal(size=(3, 6, 12)), name) for name in "qkv")
        mask = causal_mask(6) if masked else None
        coeff = Tensor(rng.normal(size=(3, 6, 12)))
        fused, weights = attention(q, k, v, mask, 3, return_weights=True)
        composed, composed_weights = attention_composed(q, k, v, mask, 3)
        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(weights, composed_weights.data)
        grads = []
        for out in (fused, composed):
            zero_grads([q, k, v])
            (out * coeff).sum().backward()
            grads.append([p.grad for p in (q, k, v)])
        for name, a, b in zip("qkv", *grads):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_op_keeps_no_graph_under_no_grad(self):
        rng = np.random.default_rng(22)
        q = Parameter(rng.normal(size=(1, 2, 4)), "q")
        with no_grad():
            out = attention(q, q, q, None, 2)
        assert not out.requires_grad and out._prev == ()

    def test_op_rejects_mismatched_shapes(self):
        x = Tensor(np.zeros((2, 3, 8)))
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.zeros((2, 3, 6))), x, None, 2)
        with pytest.raises(ShapeError):
            attention(x, x, x, None, 3)


def vsn_inputs(rng, n_vars, d_var, rows, name="x"):
    """Scalar inputs and their per-variable Linear(1, d_var) embeddings."""
    x = Parameter(rng.normal(size=(rows, n_vars)), name)
    return x, [Linear(1, d_var, f"proj{i}", rng) for i in range(n_vars)]


class TestVariableSelection:
    def test_single_variable_gets_unit_weight(self):
        rng = np.random.default_rng(17)
        vsn = VariableSelection(1, 4, 6, "vsn", rng)
        x, projections = vsn_inputs(rng, 1, 4, 3)
        combined, weights = vsn(x, projections)
        assert np.allclose(weights.data, 1.0, atol=1e-12)
        expected = vsn.var_grns[0](projections[0](x))
        assert np.allclose(combined.data, expected.data, atol=1e-12)

    def test_zero_logits_give_uniform_weights(self):
        rng = np.random.default_rng(18)
        vsn = VariableSelection(4, 3, 6, "vsn", rng)
        zero_params(vsn.flat_grn)
        x, projections = vsn_inputs(rng, 4, 3, 2)
        _, weights = vsn(x, projections)
        assert np.allclose(weights.data, 0.25, atol=1e-12)

    def test_weights_form_a_simplex(self):
        rng = np.random.default_rng(19)
        vsn = VariableSelection(5, 3, 6, "vsn", rng)
        x, projections = vsn_inputs(rng, 5, 3, 4)
        _, weights = vsn(x, projections)
        assert np.all(weights.data >= 0.0)
        assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_zero_variables_rejected(self):
        with pytest.raises(ConfigError):
            VariableSelection(0, 3, 6, "vsn", np.random.default_rng(0))

    def test_variable_count_checked(self):
        rng = np.random.default_rng(20)
        vsn = VariableSelection(3, 3, 6, "vsn", rng)
        x, projections = vsn_inputs(rng, 3, 3, 2)
        with pytest.raises(ShapeError):
            vsn(x, projections[:2])
        with pytest.raises(ShapeError):
            vsn(Tensor(x.data[:, :2]), projections)

    def test_gradcheck(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vsn = VariableSelection(3, 3, 4, "vsn", rng, d_context=4)
            x, projections = vsn_inputs(rng, 3, 3, 2)
            ctx = Parameter(rng.normal(size=(2, 4)), "ctx")

            def f():
                combined, _ = vsn(x, projections, ctx)
                return (combined * combined).sum()

            params = [x, ctx] + [p for proj in projections for p in proj.parameters()] + vsn.parameters()
            report = gradcheck(f, params)
            assert report.passed, (seed, report.summary())

    @pytest.mark.parametrize("n_vars", [1, 5])
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_composition(self, n_vars, training):
        rng = np.random.default_rng(23)
        vsn = VariableSelection(n_vars, 4, 8, "vsn", rng, d_context=8, dropout_rate=0.3, norm_type="layernorm")
        x, projections = vsn_inputs(rng, n_vars, 4, 30)
        ctx = Parameter(rng.normal(size=(30, 8)), "ctx")
        coeff = Tensor(rng.normal(size=(30, 8)))
        params = [x, ctx] + [p for proj in projections for p in proj.parameters()] + vsn.parameters()
        outputs, grads = [], []
        for forward in (vsn, lambda *a, **k: vsn_composed(vsn, *a, **k)):
            combined, weights = forward(x, projections, ctx, training=training, rng=np.random.default_rng(5))
            outputs.append((combined.data, weights.data))
            zero_grads(params)
            (combined * coeff).sum().backward()
            grads.append([p.grad for p in params])
        assert np.array_equal(outputs[0][0], outputs[1][0])  # bit-for-bit
        assert np.array_equal(outputs[0][1], outputs[1][1])
        for p, fused, composed in zip(params, *grads):
            assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed)), p.name

    def test_no_grad_forward_matches(self):
        rng = np.random.default_rng(24)
        vsn = VariableSelection(6, 4, 8, "vsn", rng)
        x, projections = vsn_inputs(rng, 6, 4, 10)
        combined, weights = vsn(x, projections)
        with no_grad():
            quiet, quiet_weights = vsn(x, projections)
        assert not quiet.requires_grad
        assert np.array_equal(quiet.data, combined.data)
        assert np.array_equal(quiet_weights.data, weights.data)


class TestScalarEmbed:
    def test_embed_matches_per_column_linear_bits(self):
        rng = np.random.default_rng(25)
        x, projections = vsn_inputs(rng, 7, 5, 40)
        embedded = scalar_embed(x, [p.weight for p in projections], [p.bias for p in projections])
        for i, proj in enumerate(projections):
            assert np.array_equal(embedded.data[:, i, :], proj(x[:, i : i + 1]).data)

    def test_embed_gradcheck(self):
        rng = np.random.default_rng(26)
        x, projections = vsn_inputs(rng, 3, 4, 5)
        coeff = Tensor(rng.normal(size=(5, 3, 4)))
        params = [x] + [p for proj in projections for p in proj.parameters()]
        report = gradcheck(
            lambda: (scalar_embed(x, [p.weight for p in projections], [p.bias for p in projections]) * coeff).sum(),
            params,
        )
        assert report.passed, report.summary()


# One variable selection per setting of the fused mixture: (norm, residual, mode).
MIXTURE_SETTINGS = [
    (norm, residual, mode) for norm in GRN_NORMS for residual in GRN_RESIDUALS for mode in ("eval", "training")
]
MIXTURE_IDS = ["-".join(case) for case in MIXTURE_SETTINGS]


def mixture_case(norm, residual, seed=0, n_vars=3, rows=6, dropout=0.25):
    """A variable selection whose per-variable GRNs have the given norm and residual, and its inputs.

    An identity residual needs the embedding as wide as the hidden size;
    a skip projection, a narrower one.
    """
    rng = np.random.default_rng(seed)
    d_var = 4 if residual == "identity" else 3
    vsn = VariableSelection(n_vars, d_var, 4, "vsn", rng, d_context=4, dropout_rate=dropout, norm_type=norm)
    x, projections = vsn_inputs(rng, n_vars, d_var, rows)
    ctx = Parameter(rng.normal(size=(rows, 4)), "ctx")
    return vsn, x, projections, ctx


class TestVariableMixture:
    @pytest.mark.parametrize("setting", MIXTURE_SETTINGS, ids=MIXTURE_IDS)
    def test_matches_composition(self, setting):
        norm, residual, mode = setting
        vsn, x, projections, ctx = mixture_case(norm, residual, seed=70)
        training = mode == "training"
        params = [x, ctx] + [p for proj in projections for p in proj.parameters()] + vsn.parameters()
        coeff = Tensor(np.random.default_rng(71).normal(size=(6, 4)))
        outputs, grads, states = [], [], []
        for forward in (vsn, lambda *a, **k: vsn_composed(vsn, *a, **k)):
            rng = np.random.default_rng(72)
            combined, _ = forward(x, projections, ctx, training=training, rng=rng)
            outputs.append(combined.data)
            states.append(rng.bit_generator.state)
            zero_grads(params)
            (combined * coeff).sum().backward()
            grads.append([p.grad for p in params])
        assert np.max(np.abs(outputs[0] - outputs[1])) <= 1e-12 * np.max(np.abs(outputs[1]))
        assert states[0] == states[1]  # the same draws, in the same order
        for p, fused, composed in zip(params, *grads):
            assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed)), p.name

    @pytest.mark.parametrize("norm", GRN_NORMS)
    @pytest.mark.parametrize("residual", GRN_RESIDUALS)
    def test_gradcheck(self, norm, residual):
        vsn, _, _, _ = mixture_case(norm, residual, seed=75, dropout=0.0)
        rng = np.random.default_rng(76)
        d_var = vsn.var_grns[0].d_in
        weights = Parameter(rng.normal(size=(5, 3)), "weights")
        embedded = Parameter(rng.normal(size=(5, 3, d_var)), "embedded")
        masks = [None, dropout_mask((5, 4), 0.3, rng), None]
        coeff = Tensor(rng.normal(size=(5, 4)))
        grns = [g.op_params() for g in vsn.var_grns]
        params = [weights, embedded] + [p for g in vsn.var_grns for p in g.parameters()]
        report = gradcheck(lambda: (variable_mixture(weights, embedded, grns, masks) * coeff).sum(), params, tol=1e-4)
        assert report.passed, report.summary()

    def test_one_node_with_an_edge_per_input(self):
        vsn, _, _, _ = mixture_case("layernorm", "skip", seed=77)
        weights = Parameter(np.ones((2, 3)), "weights")
        embedded = Parameter(np.ones((2, 3, 3)), "embedded")
        out = variable_mixture(weights, embedded, [g.op_params() for g in vsn.var_grns], [None] * 3)
        expected = [weights, embedded] + [p for g in vsn.var_grns for p in g.parameters()]
        assert len(out._prev) == len(expected) and all(a is b for a, b in zip(out._prev, expected))

    def test_counts_checked(self):
        vsn, _, _, _ = mixture_case("rmsnorm", "skip", seed=78)
        grns = [g.op_params() for g in vsn.var_grns]
        embedded = Tensor(np.ones((2, 3, 3)))
        with pytest.raises(ShapeError):
            variable_mixture(Tensor(np.ones((2, 3))), embedded, grns[:2], [None] * 3)
        with pytest.raises(ShapeError):
            variable_mixture(Tensor(np.ones((2, 3))), embedded, grns, [None] * 4)
        with pytest.raises(ShapeError):
            variable_mixture(Tensor(np.ones((2, 4))), embedded, grns, [None] * 3)
        with pytest.raises(ShapeError):
            variable_mixture(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 9))), grns, [None] * 3)

    def test_under_no_grad_holds_no_per_variable_array(self):
        # Each variable makes several (rows, hidden) arrays; with nothing
        # kept, sixteen variables peak where two do, within one such array.
        rows, hidden = 4096, 8
        peaks = []
        for n_vars in (2, 16):
            rng = np.random.default_rng(79)
            vsn = VariableSelection(n_vars, 4, hidden, "vsn", rng)
            grns = [g.op_params() for g in vsn.var_grns]
            weights = Parameter(rng.random((rows, n_vars)), "weights")
            embedded = Parameter(rng.normal(size=(rows, n_vars, 4)), "embedded")
            with no_grad():
                variable_mixture(weights, embedded, grns, [None] * n_vars)
                tracemalloc.start()
                try:
                    out = variable_mixture(weights, embedded, grns, [None] * n_vars)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert not out.requires_grad and out._prev == ()
        assert peaks[1] <= peaks[0] + rows * hidden * 8, peaks


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        p = Parameter(np.asarray([1.0, -2.0, 3.0]), "p")
        arena = ParamArena([p])
        p.grad[...] = [0.5, -0.25, 1.5]
        adam_step(arena, lr=0.01)
        # bias-corrected first step is lr * g / (|g| + eps)
        assert np.allclose(p.data, [1.0 - 0.01, -2.0 + 0.01, 3.0 - 0.01], atol=1e-6)
        assert arena.step == 1

    def test_zero_gradient_fresh_state_is_noop(self):
        p = Parameter(np.asarray([1.0, 2.0]), "p")
        arena = ParamArena([p])
        p.grad[...] = np.zeros(2)
        adam_step(arena, lr=0.1)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_identical_replicas_stay_bitwise_equal(self):
        rng = np.random.default_rng(20)
        grads = [rng.normal(size=4) for _ in range(5)]
        a = Parameter(np.ones(4), "a")
        b = Parameter(np.ones(4), "b")
        arena_a, arena_b = ParamArena([a]), ParamArena([b])
        for g in grads:
            a.grad[...] = g
            b.grad[...] = g
            adam_step(arena_a, lr=0.05)
            adam_step(arena_b, lr=0.05)
        assert np.array_equal(a.data, b.data)

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter(np.ones(2), "layer.weight")
        arena = ParamArena([Parameter(np.ones(3), "other"), p])
        p.grad[...] = [np.nan, 0.0]
        with pytest.raises(TrainingError, match="layer.weight"):
            adam_step(arena, lr=0.1)

    def test_arena_steps_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(23)
        shapes = [(), (1,), (3, 4), (5,), (2, 3, 2), (4, 1)]
        init = [rng.normal(size=shape) for shape in shapes]
        packed = [Parameter(x.copy(), f"p{i}") for i, x in enumerate(init)]
        loose = [Parameter(x.copy(), f"p{i}") for i, x in enumerate(init)]
        arena = ParamArena(packed)
        hyper = dict(lr=0.05, beta1=0.8, beta2=0.99, eps=1e-8)
        state: dict = {}
        for _ in range(25):
            coeffs = [rng.normal(size=shape) for shape in shapes]

            def loss(params):  # the last parameter never receives a gradient
                terms = [(p * c + p * p).sum() for p, c in zip(params[:-1], coeffs)]
                return sum(terms[1:], terms[0])

            arena.grads.fill(0.0)
            loss(packed).backward()
            zero_grads(loose)
            loss(loose).backward()
            assert loose[-1].grad is None and not packed[-1].grad.any()
            adam_step(arena, **hyper)
            adam_reference(loose, state, **hyper)
            for a, b in zip(packed, loose):
                assert a.data.shape == b.data.shape
                assert np.array_equal(a.data, b.data), a.name
        assert arena.step == state["p0"][0] == 25
        assert np.array_equal(arena.m, np.concatenate([state[p.name][1].ravel() for p in loose]))

    def test_packing_keeps_values_and_shares_memory(self):
        p = Parameter(np.arange(6.0).reshape(2, 3), "p")
        q = Parameter(np.asarray(7.0), "q")
        arena = ParamArena([p, q])
        assert arena.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert p.data.shape == (2, 3) and q.data.shape == ()
        p.data[1, 2] = -1.0
        q.grad[...] = 2.0
        assert arena.values[5] == -1.0 and arena.grads[6] == 2.0

    def test_packing_a_parameter_twice_raises(self):
        p = Parameter(np.ones(2), "p")
        with pytest.raises(TrainingError, match="twice"):
            ParamArena([p, Parameter(np.ones(1), "q"), p])

    @pytest.mark.parametrize("detach", ["zero_grads", "rebind_data", "rebind_grad"])
    def test_parameter_detached_from_arena_raises(self, detach):
        p = Parameter(np.ones(2), "p")
        q = Parameter(np.ones(3), "layer.q")
        arena = ParamArena([p, q])
        if detach == "zero_grads":
            zero_grads([q])
        elif detach == "rebind_data":
            q.data = q.data + 0.0
        else:
            q.grad = np.ones(3)
        with pytest.raises(TrainingError, match="layer.q"):
            adam_step(arena, lr=0.1)


class TestGradcheckHarness:
    def test_quadratic_matches_to_1e9(self):
        theta = Parameter(np.asarray([0.3, -1.2, 2.0]), "theta")
        report = gradcheck(lambda: (theta * theta).sum(), [theta], delta=1e-5)
        assert report.max_rel_err < 1e-9

    def test_rmsnorm_composition(self):
        rng = np.random.default_rng(21)
        x = Parameter(rng.normal(size=4), "x")
        gain = Parameter(np.ones(4), "gain")
        report = gradcheck(lambda: rmsnorm(x, gain).sum(), [x, gain])
        assert report.max_rel_err < 1e-4

    def test_report_flags_mismatches_instead_of_raising(self):
        x = Parameter(np.asarray([1.0]), "x")
        calls = {"n": 0}

        def inconsistent():
            calls["n"] += 1
            scale = 1.0 if calls["n"] == 1 else 2.0  # backward sees 1, differences see 2
            return (x * scale).sum()

        report = gradcheck(inconsistent, [x])
        assert not report.passed
        assert report.failures == ["x"]


class TestNormsAndDropout:
    def test_layernorm_centers_and_scales(self):
        rng = np.random.default_rng(22)
        norm = LayerNorm(6, "ln")
        x = Tensor(rng.normal(size=(4, 6)) * 3 + 5)
        out = layernorm(x, norm.gain, norm.shift)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_dropout_is_inverted_and_seeded(self):
        out1 = dropout_mask((100, 10), 0.4, np.random.default_rng(7))
        out2 = dropout_mask((100, 10), 0.4, np.random.default_rng(7))
        assert np.array_equal(out1, out2)
        kept = out1 != 0
        assert np.allclose(out1[kept], 1.0 / 0.6)
        assert abs(kept.mean() - 0.6) < 0.05

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        assert dropout_mask((3, 3), 0.0, rng) is None
        assert rng.random() == np.random.default_rng(0).random()  # no draw

    def test_linear_bias_off_origin(self):
        rng = np.random.default_rng(23)
        lin = Linear(1, 8, "proj", rng)
        assert np.linalg.norm(lin.bias.data) > 0.1
