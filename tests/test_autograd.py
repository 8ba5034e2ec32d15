from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from conftest import tft_gradcheck_fixture
from gradcheck import gradcheck
from senticast.errors import GraphReuseError, ShapeError
from senticast.losses import mse_loss_batch
from senticast.nn import ParamArena, Parameter, Tensor, concat, no_grad, zero_grads
from senticast.nn.autograd import _sigmoid


def test_diamond_graph_accumulates_both_paths():
    x = Parameter(np.asarray([3.0]), "x")
    y = Parameter(np.asarray([4.0]), "y")
    z = x * y + x
    z.backward()
    assert x.grad.tolist() == [5.0]  # y + 1
    assert y.grad.tolist() == [3.0]


def test_parameter_outside_an_arena_gets_its_own_gradient_array():
    # add hands one array to both of its inputs; each parameter copies it.
    x = Parameter(np.ones(3), "x")
    y = Parameter(np.ones(3), "y")
    ((x + y) * Tensor(np.arange(3.0))).sum().backward()
    assert not np.shares_memory(x.grad, y.grad)
    x.grad += 1.0
    assert y.grad.tolist() == [0.0, 1.0, 2.0]


def test_packed_parameter_used_twice_sums_into_its_arena_view():
    x = Parameter(np.asarray([3.0]), "x")
    y = Parameter(np.asarray([4.0]), "y")
    arena = ParamArena([x, y])
    arena.grads.fill(0.0)
    view = x.grad
    (x * y + x).sum().backward()
    assert x.grad is view and x.grad.tolist() == [5.0]
    assert arena.grads.tolist() == [5.0, 3.0]


def test_each_op_visited_once_in_reverse():
    # Reusing one node in two places must not double-run its backward.
    x = Parameter(np.asarray([2.0]), "x")
    shared = x * x  # dz/dx through both uses: 4x^3
    z = (shared * shared).sum()
    z.backward()
    assert x.grad.tolist() == [32.0]


def test_second_backward_raises_and_keeps_gradients():
    x = Parameter(np.asarray([2.0]), "x")
    y = x * x
    z = (y * y).sum()
    z.backward()
    assert x.grad.tolist() == [32.0]
    with pytest.raises(GraphReuseError):
        z.backward()
    assert x.grad.tolist() == [32.0]


def test_backward_through_a_used_subgraph_raises():
    x = Parameter(np.asarray([1.5, -0.5]), "x")
    shared = x * x
    (shared * 2.0).sum().backward()
    first = x.grad.copy()
    with pytest.raises(GraphReuseError):
        (shared * 3.0).sum().backward()
    assert np.array_equal(x.grad, first)


def test_backward_requires_scalar():
    x = Parameter(np.ones(3), "x")
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_broadcast_add_unbroadcasts_gradient():
    x = Parameter(np.ones((4, 3)), "x")
    b = Parameter(np.zeros(3), "b")
    (x + b).sum().backward()
    assert b.grad.tolist() == [4.0, 4.0, 4.0]
    assert x.grad.shape == (4, 3)


def test_matmul_batched_gradcheck():
    rng = np.random.default_rng(0)
    a = Parameter(rng.normal(size=(2, 3, 4)), "a")
    b = Parameter(rng.normal(size=(4, 5)), "b")
    report = gradcheck(lambda: ((a @ b) ** 2).sum(), [a, b])
    assert report.passed, report.summary()


def test_getitem_fancy_index_accumulates_repeats():
    table = Parameter(np.arange(6.0).reshape(3, 2), "table")
    idx = np.asarray([0, 1, 0])
    out = table[idx].sum()
    out.backward()
    assert table.grad.tolist() == [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]]


def test_basic_index_gradient_lands_in_place():
    x = Parameter(np.arange(24.0).reshape(2, 3, 4), "x")
    for index in (1, (slice(None), 2), (Ellipsis, slice(1, 3)), (0, None, slice(None), -1), np.int64(1)):
        zero_grads([x])
        part = x[index]
        (part * Tensor(np.full(part.shape, 3.0))).sum().backward()
        expected = np.zeros_like(x.data)
        expected[index] = 3.0
        assert np.array_equal(x.grad, expected), index


def test_slice_and_concat_roundtrip_gradient():
    x = Parameter(np.arange(12.0).reshape(3, 4), "x")
    out = concat([x[:, :2], x[:, 2:]], axis=1)
    (out * 2.0).sum().backward()
    assert np.array_equal(x.grad, np.full((3, 4), 2.0))


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(1)
    x = Parameter(rng.normal(size=(5, 7)), "x")
    out = x.softmax(axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    coeff = Tensor(rng.normal(size=(5, 7)))
    report = gradcheck(lambda: (x.softmax(axis=-1) * coeff).sum(), [x])
    assert report.passed, report.summary()


def test_elementwise_op_gradients():
    rng = np.random.default_rng(2)
    x = Parameter(rng.normal(size=(3, 4)) + 0.1, "x")

    def f():
        t = x.tanh() + x.sigmoid() + x.silu()
        return (t * t).mean()

    report = gradcheck(f, [x])
    assert report.passed, report.summary()


def test_power_gradients():
    rng = np.random.default_rng(3)
    x = Parameter(rng.uniform(0.5, 2.0, size=6), "x")
    for exponent in (3, -0.5):  # -0.5 is the norms' exponent
        report = gradcheck(lambda: (x ** exponent).sum(), [x])
        assert report.passed, f"x ** {exponent}: {report.summary()}"


def test_mean_and_sum_axes():
    x = Parameter(np.arange(24.0).reshape(2, 3, 4), "x")
    out = x.mean(axis=2).sum(axis=0).sum()
    out.backward()
    assert np.allclose(x.grad, 0.25)


def test_permute_and_reshape_gradients():
    rng = np.random.default_rng(4)
    x = Parameter(rng.normal(size=(2, 3, 4)), "x")
    report = gradcheck(lambda: (x.permute(1, 0, 2).reshape(3, 8) ** 2).sum(), [x])
    assert report.passed, report.summary()


def test_repeat_rows_gradient_sums_copies():
    x = Parameter(np.asarray([[1.0, 2.0], [3.0, 4.0]]), "x")
    out = x.repeat_rows(3)
    assert out.shape == (6, 2)
    out.sum().backward()
    assert np.array_equal(x.grad, np.full((2, 2), 3.0))


def test_no_grad_suppresses_graph():
    x = Parameter(np.ones(3), "x")
    with no_grad():
        out = (x * 2.0).sum()
    assert out.requires_grad is False
    assert out._prev == ()


def test_no_grad_holds_for_every_thread():
    x = Parameter(np.ones(3), "x")
    outs = []
    with no_grad():
        worker = threading.Thread(target=lambda: outs.append((x * 2.0).sum()))
        worker.start()
        worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert outs[0].requires_grad is False
    assert (x * 2.0).requires_grad is True


def test_sigmoid_matches_masked_scatter_form():
    x = np.random.default_rng(6).normal(size=(40, 9)) * 30.0
    x[0, :6] = [np.nan, np.inf, -np.inf, 0.0, -0.0, -800.0]
    reference = np.empty_like(x)
    pos = x >= 0
    reference[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    reference[~pos] = ex / (1.0 + ex)
    for view, expected in ((x, reference), (x[:, 2:7], reference[:, 2:7]), (x.T, reference.T)):
        assert np.array_equal(_sigmoid(view), expected, equal_nan=True)


@pytest.mark.parametrize("packed", [False, True], ids=["loose", "arena"])
def test_parameter_gradient_never_writes_an_array_it_was_handed(packed):
    p = Parameter(np.asarray([1.0, -2.0]), "p")
    q = Parameter(np.asarray([0.5, 4.0]), "q")
    if packed:
        ParamArena([p, q])
    h = p * 3.0  # p's second edge, reached after y's
    y = p + h  # y hands its incoming array to both p and the interior node h
    (y * q).sum().backward()
    assert p.grad.tolist() == [2.0, 16.0]  # (1 + 3) * q
    assert y.grad.tolist() == [0.5, 4.0]
    assert h.grad.tolist() == [0.5, 4.0]
    assert q.grad.tolist() == [4.0, -8.0]


def test_parameter_first_touched_by_a_broadcast_view_adds_later_edges():
    p = Parameter(np.asarray([1.0, 2.0, 3.0]), "p")
    (p.sum() + (p * 2.0).sum()).backward()  # sum's gradient is a read-only broadcast
    assert p.grad.tolist() == [3.0, 3.0, 3.0]


def test_zero_grads_clears():
    x = Parameter(np.ones(3), "x")
    (x * x).sum().backward()
    assert x.grad is not None
    zero_grads([x])
    assert x.grad is None


def test_float64_enforced():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64


def test_forward_values_match_numpy():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = Tensor(a) @ Tensor(b)
    assert np.array_equal(out.data, a @ b)


def test_training_step_graph_is_freed_by_reference_counting():
    # No gradient map refers to its op's output, so the graph holds no cycle
    # and dropping the loss frees it without the cyclic collector.
    model, past, known, company, truth, _ = tft_gradcheck_fixture(0, batch=4)

    def step():
        mse_loss_batch(model.forward_batch(past, known, company, training=True), truth).backward()

    gc.collect()
    gc.disable()
    try:
        step()
        assert gc.collect() == 0
    finally:
        gc.enable()
