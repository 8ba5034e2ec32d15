"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import math
import re
from array import array
from datetime import date, timedelta

import numpy as np

from senticast.errors import ParseError, ShapeError, ValidationError
from senticast.fileio import read_csv
from senticast.losses import DEFAULT_ALPHA, directional_weights
from senticast.models import TftLite, TrainConfig
from senticast.nn import Tensor
from senticast.nn.autograd import NORM_EPS
from senticast.text import PANEL_HEADER, PANEL_VALUES, AlignedPanel, PanelRow


def dmse_loss(pred, truth, anchor: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Directional MSE for one horizon vector, through the package's weights."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise ShapeError(f"dmse needs matching 1-d vectors, got {pred.shape} and {truth.shape}")
    weights = directional_weights(truth, pred, np.asarray(float(anchor)), alpha)
    return float(np.mean(weights * (truth - pred) ** 2))


def dmse_oracle(pred, truth, anchor, alpha=1e3) -> float:
    """Brute-force per-step directional MSE."""
    total = 0.0
    x_prev = anchor
    y_prev = anchor
    for x, y in zip(truth, pred):
        weight = 1.0 if (x - x_prev) * (y - y_prev) >= 0 else alpha
        total += weight * (x - y) ** 2
        x_prev = x
        y_prev = y
    return total / len(truth)


def spearman_oracle(x, y) -> float:
    """Explicit rank assignment plus the textbook Pearson formula."""

    def ranks(values):
        out = []
        for v in values:
            smaller = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out.append(smaller + (equal + 1) / 2.0)
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def average_ranks_loop(values) -> np.ndarray:
    """1-based average ranks by walking each run of ties in stable-sorted order."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def welford_mean_loop(vectors) -> list[float]:
    """Running mean of equal-length vectors, one Python float at a time."""
    mean = [float(v) for v in vectors[0]]
    for count, vec in enumerate(vectors[1:], start=2):
        for j, value in enumerate(vec):
            mean[j] += (value - mean[j]) / count
    return mean


def mentions_several_oracle(body: str, tickers) -> bool:
    """Whether two or more ticker patterns match `body`, with every regex run."""
    patterns = [
        re.compile(rf"(?<![A-Za-z0-9])\$?{re.escape(t)}(?![A-Za-z0-9])", re.IGNORECASE)
        for t in sorted({t.upper() for t in tickers})
    ]
    return len([p for p in patterns if p.search(body)]) >= 2


def clean_tweet_oracle(body: str) -> str:
    """Every regex of the cleaning chain run on every body, whitespace collapsed by regex."""
    text = re.sub(r"(?:https?://|www\.)\S+", " ", body, flags=re.IGNORECASE)
    text = re.sub(r"@\w+", " ", text)
    text = re.sub(r"\$[A-Za-z][A-Za-z0-9]*", " ", text)
    text = re.sub(r"[^A-Za-z0-9\s]+", "", text)
    return re.sub(r"\s+", " ", text).strip().lower()


# The readers' line-by-line loops: each row through `read_csv`, checked in
# file order, the first faulty line raising.  The numpy passes must return
# the same bits or raise the same error.


def read_panel_loop(path, ticker: str) -> AlignedPanel:
    rows = read_csv(path)
    _, header = next(rows)
    if tuple(header[: len(PANEL_HEADER)]) != PANEL_HEADER:
        raise ParseError(f"{path}:1: unexpected panel header")
    days: list[date] = []
    values = array("d")
    flags = array("q")
    for lineno, row in rows:
        try:
            values.extend(map(float, row[1:8] + row[len(PANEL_HEADER) :]))
            days.append(date.fromisoformat(row[0]))
            holiday, dow = int(row[8]), int(row[9])
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if holiday not in (0, 1) or not 0 <= dow <= 4:
            raise ParseError(f"{path}:{lineno}: holiday must be 0 or 1 and dow 0..4, got {holiday} and {dow}")
        flags.extend((holiday, dow))
    width = len(PANEL_VALUES) + len(header) - len(PANEL_HEADER)
    return AlignedPanel.from_columns(
        ticker, days,
        np.frombuffer(values, dtype=np.float64).reshape(-1, width),
        np.frombuffer(flags, dtype=np.int64).reshape(-1, 2),
    )


def load_embeddings_loop(path) -> dict[str, np.ndarray]:
    ids: dict[str, None] = {}
    values = array("d")
    rows = read_csv(path)
    _, header = next(rows)
    if not header or header[0].strip() != "tweet_id" or len(header) < 2:
        raise ParseError(f"{path}:1: expected header tweet_id,v0,...")
    for lineno, row in rows:
        if row[0] in ids:
            raise ParseError(f"{path}:{lineno}: duplicate tweet_id {row[0]!r}")
        try:
            vector = list(map(float, row[1:]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(sum(vector)) and not all(map(math.isfinite, vector)):
            raise ValidationError(f"{path}:{lineno}: non-finite embedding value")
        ids[row[0]] = None
        values.extend(vector)
    return dict(zip(ids, np.frombuffer(values, dtype=np.float64).reshape(-1, len(header) - 1)))


def read_predictions_loop(path) -> dict[str, tuple[list[float], list[float]]]:
    grouped: dict[str, tuple[list[float], list[float]]] = {}
    rows = read_csv(path)
    next(rows)
    for lineno, row in rows:
        truths, preds = grouped.setdefault(row[1], ([], []))
        try:
            truths.append(float(row[3]))
            preds.append(float(row[4]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return grouped


def write_predictions_loop(model_path, naive_path, test, closes, pred, tickers) -> int:
    """Both prediction files as one row list each, a row per (window, step), through `csv.writer`."""
    truths, anchors = closes[test.ahead].tolist(), closes[test.ends].tolist()
    target_days = test.target_days
    model_rows, naive_rows = [], []
    for i, company in enumerate(test.company.tolist()):
        ticker = tickers[company]
        naive = [float(anchors[i])] * test.horizon
        for step, (day, truth) in enumerate(zip(target_days[i], truths[i]), start=1):
            model_rows.append(
                [day.isoformat(), ticker, str(step), repr(truth), repr(float(pred[i, step - 1]))]
            )
            naive_rows.append([day.isoformat(), ticker, str(step), repr(truth), repr(naive[step - 1])])
    for path, rows in ((model_path, model_rows), (naive_path, naive_rows)):
        with open(path, "w", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["date", "ticker", "step", "truth", "pred"])
            writer.writerows(rows)
    return len(model_rows)


def adam_reference(params, state: dict, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Per-parameter Adam with bias correction; `state` maps a name to (step, m, v).

    A parameter with no gradient steps with a zero one.  Each update
    rebinds `.data`, so run it on parameters that are not in an arena.
    """
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        step, m, v = state.get(p.name, (0, np.zeros_like(p.data), np.zeros_like(p.data)))
        step += 1
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        state[p.name] = (step, m, v)
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# Every setting with a scalar value: (config-file key, flag and --set name,
# raw value, attribute path on RunConfig, parsed value).  Written out by hand,
# independently of senticast.config.SETTINGS, so that a key that changes or
# goes missing from that table fails a test.
SETTING_CASES = [
    ("train.lookback", "lookback", "7", "train.lookback", 7),
    ("train.horizon", "horizon", "2", "train.horizon", 2),
    ("train.hidden_size", "hidden_size", "32", "train.hidden_size", 32),
    ("train.lstm_layers", "lstm_layers", "2", "train.lstm_layers", 2),
    ("train.n_heads", "n_heads", "8", "train.n_heads", 8),
    ("train.feed_forward", "feed_forward", "relu", "train.feed_forward", "relu"),
    ("train.dropout", "dropout", "0.5", "train.dropout", 0.5),
    ("train.hidden_continuous_size", "hidden_continuous_size", "4", "train.hidden_continuous_size", 4),
    ("train.norm_type", "norm_type", "layernorm", "train.norm_type", "layernorm"),
    ("train.batch_size", "batch_size", "16", "train.batch_size", 16),
    ("train.learning_rate", "learning_rate", "0.01", "train.learning_rate", 0.01),
    ("train.beta1", "beta1", "0.8", "train.beta1", 0.8),
    ("train.beta2", "beta2", "0.99", "train.beta2", 0.99),
    ("train.adam_eps", "adam_eps", "1e-6", "train.adam_eps", 1e-6),
    ("train.epochs", "epochs", "5", "train.epochs", 5),
    ("train.seed", "seed", "5", "train.seed", 5),
    ("train.dmse_alpha", "dmse_alpha", "10", "train.dmse_alpha", 10.0),
    ("train.nlinear_const_init", "nlinear_const_init", "false", "train.nlinear_const_init", False),
    ("feature_set", "feature_set", "hlove", "feature_set", "HLOVE"),
    ("smoothing_span", "smoothing_span", "5", "smoothing_span", 5),
    ("analysis.atr_period", "atr_period", "7", "atr_period", 7),
    ("split", "split", "0.7", "split", 0.7),
    ("train.model", "model", "nlinear", "model", "nlinear"),
    ("train.loss", "loss", "mse", "loss", "mse"),
    ("seed", "seed", "5", "seed", 5),
    ("gridsearch.validation_fraction", "validation_fraction", "0.3", "validation_fraction", 0.3),
]

# One malformed value per parsed type: (config-file key, flag and --set name, raw value).
MALFORMED_CASES = [
    ("train.epochs", "epochs", "three"),
    ("train.dropout", "dropout", "abc"),
    ("train.nlinear_const_init", "nlinear_const_init", "maybe"),
]
SETTING_IDS = [case[0] for case in SETTING_CASES]
MALFORMED_IDS = [case[0] for case in MALFORMED_CASES]

# Well-formed but out-of-range optimizer and loss values, NaN included, that
# TrainConfig.validate must reject: (field and flag name, raw value).
INVALID_TRAIN_CASES = [
    ("learning_rate", "nan"),
    ("dmse_alpha", "nan"),
    ("beta1", "-0.1"),
    ("beta1", "1"),
    ("beta1", "5"),
    ("beta1", "nan"),
    ("beta2", "-0.1"),
    ("beta2", "1"),
    ("beta2", "5"),
    ("beta2", "nan"),
    ("adam_eps", "0"),
    ("adam_eps", "-1e-8"),
    ("adam_eps", "nan"),
]
INVALID_TRAIN_IDS = [f"{name}={raw}" for name, raw in INVALID_TRAIN_CASES]


def latent_sentiment_panels(
    seed: int,
    n_companies: int = 2,
    length: int = 240,
    embed_dim: int = 16,
    drive: float = 0.04,
    return_noise: float = 0.003,
    score_noise: float = 0.05,
    embed_noise: float = 2.5,
    persistence: float = 0.8,
    innovation: float = 0.35,
    reversion: float = 0.05,
) -> list[AlignedPanel]:
    """Panels whose close dynamics follow a latent mood process.

    The score column observes the latent state with little noise; the
    embedding columns mix it into embed_dim dimensions under heavy noise.
    Mild mean reversion keeps the test region inside the training range.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    panels = []
    for c in range(n_companies):
        direction = rng.normal(size=embed_dim)
        direction /= np.linalg.norm(direction)
        state = 0.0
        base = 100.0 * (1 + c)
        close = base
        day = date(2021, 1, 4)
        rows = []
        for _ in range(length):
            while day.weekday() >= 5:
                day += timedelta(days=1)
            score = state + rng.normal(0, score_noise)
            embedding = (state * direction + embed_noise * rng.normal(size=embed_dim)).tolist()
            high = close * (1 + abs(rng.normal(0, 0.004)))
            low = close * (1 - abs(rng.normal(0, 0.004)))
            open_px = close * (1 + rng.normal(0, 0.002))
            volume = 1e6 * (1 + 0.3 * abs(state) + 0.05 * rng.random())
            rows.append(
                PanelRow(day, high, low, open_px, volume, close, score, score, embedding, 0, day.weekday())
            )
            state = persistence * state + rng.normal(0, innovation)
            ret = drive * state + reversion * np.log(base / close) + rng.normal(0, return_noise)
            close *= 1.0 + ret
            day += timedelta(days=1)
        panels.append(AlignedPanel(f"C{c}", rows, embed_dim))
    return panels


def tft_gradcheck_fixture(seed: int, batch: int = 1):
    """Tiny TFT plus DMSE data placed at a smooth, direction-stable point.

    Truth sits a constant offset from the model's own initial prediction, so
    all directional products are decisively nonnegative and the loss is
    small enough for central differences to resolve.
    """
    cfg = TrainConfig(
        lookback=6, horizon=2, hidden_size=8, n_heads=2, hidden_continuous_size=4, dropout=0.0
    )
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    model = TftLite(cfg, n_features=3, n_companies=batch, rng=rngs[0])
    past = rngs[1].normal(size=(batch, 6, 3))
    known = np.zeros((batch, 2, 6))
    known[:, :, 0] = rngs[2].integers(0, 2, size=(batch, 2))
    known[:, :, 1] = 1.0
    company = np.arange(batch)
    pred0 = model.forward_batch(past, known, company, training=False).data
    truth = pred0 + 0.02
    anchor = pred0[:, 0] - 0.4
    weights = directional_weights(truth, pred0, anchor, 1e3)
    assert (weights == 1.0).all(), "fixture must sit away from the direction boundary"
    return model, past, known, company, truth, anchor


def lstm_unrolled(encoder, seq):
    """The per-step LSTM composition that `lstm_sequence` fuses: the oracle.

    Each layer slices one timestep at a time, maps it and the previous
    hidden state onto the four gates, and concatenates the hidden states.
    """
    from senticast.nn import Tensor, concat

    batch, steps = seq.shape[0], seq.shape[1]
    current = seq
    for cell in encoder.cells:
        hd = cell.hidden
        h = Tensor(np.zeros((batch, hd)))
        c = Tensor(np.zeros((batch, hd)))
        outputs = []
        for t in range(steps):
            z = cell.wx(current[:, t, :]) + cell.wh(h)
            gate_in = z[..., :hd].sigmoid()
            gate_forget = z[..., hd : 2 * hd].sigmoid()
            candidate = z[..., 2 * hd : 3 * hd].tanh()
            gate_out = z[..., 3 * hd :].sigmoid()
            c = gate_forget * c + gate_in * candidate
            h = gate_out * c.tanh()
            outputs.append(h.reshape(batch, 1, hd))
        current = concat(outputs, axis=1)
    return current


def rmsnorm(x, gain):
    """y_i = gain_i * x_i / sqrt(mean(x^2) + eps) over the trailing axis, as a composition of ops."""
    if x.shape[-1] != gain.shape[-1]:
        raise ShapeError(f"rmsnorm gain dim {gain.shape[-1]} != input dim {x.shape[-1]}")
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + NORM_EPS) ** -0.5) * gain


def layernorm(x, gain, shift):
    """Standard layer normalization with gain and shift, as a composition of ops."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ((var + NORM_EPS) ** -0.5) * gain + shift


def grn_composed(grn, x, context=None, training=False, rng=None):
    """The composition of ops that `gated_residual` fuses, with the GRN's own transform: the oracle.

    Draws its dropout mask with the same `rng.random` call as the GRN, so
    equal generators give equal masks.
    """
    if grn.ff is not None:
        a = grn.ff(x)
    else:
        pre = x @ grn.fc1.weight + grn.fc1.bias
        if context is not None:
            pre = pre + context @ grn.context_proj.weight
        a = pre.silu()
    gated = a @ grn.gate.weight + grn.gate.bias
    u = gated[..., : grn.d_out]
    v = gated[..., grn.d_out :]
    g = u * v.sigmoid()
    if training and grn.dropout_rate > 0.0:
        keep = 1.0 - grn.dropout_rate
        g = g * Tensor((rng.random(g.shape) < keep) / keep)
    residual = x @ grn.skip.weight if grn.skip is not None else x
    if grn.norm.shift is None:
        return rmsnorm(residual + g, grn.norm.gain)
    return layernorm(residual + g, grn.norm.gain, grn.norm.shift)


def causal_mask(steps: int) -> np.ndarray:
    """Additive attention mask: 0 at or before the query position, large negative after."""
    mask = np.zeros((steps, steps))
    mask[np.triu_indices(steps, k=1)] = -1e30
    return mask


def attention_composed(q, k, v, mask, n_heads):
    """The reshape, permute, matmul, scale, mask and softmax composition that `attention` fuses: the oracle.

    Returns the merged heads and the weights tensor.
    """
    batch, len_q, hidden = q.shape
    len_k = k.shape[1]
    head_dim = hidden // n_heads

    def heads(x, length):
        return x.reshape(batch, length, n_heads, head_dim).permute(0, 2, 1, 3)

    qh, kh, vh = heads(q, len_q), heads(k, len_k), heads(v, len_k)
    scores = (qh @ kh.permute(0, 1, 3, 2)) * (1.0 / np.sqrt(head_dim))
    if mask is not None:
        scores = scores + Tensor(mask)
    weights = scores.softmax(axis=-1)
    return (weights @ vh).permute(0, 2, 1, 3).reshape(batch, len_q, hidden), weights


def vsn_composed(vsn, x, projections, context=None, training=False, rng=None):
    """Variable selection as one `Linear` per input, a concat and a slice, multiply and add chain: the oracle.

    Draws dropout masks in the block's order (flat GRN, then each variable's
    GRN), so equal generators give equal masks.
    """
    from senticast.nn import concat

    variables = [proj(x[:, i : i + 1]) for i, proj in enumerate(projections)]
    flat = variables[0] if len(variables) == 1 else concat(variables, axis=-1)
    weights = vsn.flat_grn(flat, context, training=training, rng=rng).softmax(axis=-1)
    combined = None
    for i, var in enumerate(variables):
        term = weights[..., i : i + 1] * vsn.var_grns[i](var, training=training, rng=rng)
        combined = term if combined is None else combined + term
    return combined, weights
