"""The trained forecasters, NLinear and TFT-lite (`cli.write_predictions` writes the persistence baseline)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .nn.autograd import Parameter, Tensor, concat
from .nn.blocks import GatedResidualNetwork, LstmEncoder, MultiHeadAttention, VariableSelection
from .nn.layers import Linear, Module
from .windows import CLOSE_COLUMN, KNOWN_DIM


@dataclass
class TrainConfig:
    """Model and optimizer settings; defaults follow the tuned grid choices."""

    lookback: int = 15
    horizon: int = 3
    hidden_size: int = 64
    lstm_layers: int = 1
    n_heads: int = 4
    feed_forward: str = "swiglu"
    dropout: float = 0.25
    hidden_continuous_size: int = 32
    norm_type: str = "rmsnorm"
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 200
    seed: int = 0
    dmse_alpha: float = 1e3
    nlinear_const_init: bool = True

    def validate(self) -> None:
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError(f"lookback/horizon must be >= 1, got {self.lookback}/{self.horizon}")
        if self.hidden_size < 1 or self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} must be positive and divisible by n_heads {self.n_heads}"
            )
        if self.lstm_layers < 1:
            raise ConfigError(f"lstm_layers must be >= 1, got {self.lstm_layers}")
        if self.feed_forward not in ("swiglu", "relu"):
            raise ConfigError(f"feed_forward must be swiglu or relu, got {self.feed_forward!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.hidden_continuous_size < 1:
            raise ConfigError("hidden_continuous_size must be >= 1")
        if self.norm_type not in ("rmsnorm", "layernorm"):
            raise ConfigError(f"norm_type must be rmsnorm or layernorm, got {self.norm_type!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # Each check is written so that NaN fails it.
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {beta}")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not self.dmse_alpha >= 1:
            raise ConfigError(f"dmse_alpha must be >= 1, got {self.dmse_alpha}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown train config fields: {sorted(extra)}")
        cfg = replace(cls(), **data)
        cfg.validate()
        return cfg


class NLinear(Module):
    """Subtract the window's last close, map linearly to the horizon, add it back.

    Operates on the close channel only; covariates are ignored by design.
    """

    kind = "nlinear"

    def __init__(self, lookback: int, horizon: int, rng: np.random.Generator, const_init: bool = True):
        self.lookback = lookback
        self.horizon = horizon
        if const_init:
            weight = np.full((lookback, horizon), 1.0 / lookback)
        else:
            bound = 1.0 / np.sqrt(lookback)
            weight = rng.uniform(-bound, bound, size=(lookback, horizon))
        self.weight = Parameter(weight, "nlinear.weight")
        self.bias = Parameter(np.zeros(horizon), "nlinear.bias")

    def forward(self, x: Tensor) -> Tensor:
        """x: (batch, lookback) close values -> (batch, horizon)."""
        if x.shape[-1] != self.lookback:
            raise ShapeError(f"nlinear expected window of {self.lookback}, got {x.shape[-1]}")
        last = x[:, self.lookback - 1 : self.lookback]
        return (x - last) @ self.weight + self.bias + last

    def forward_batch(
        self,
        past: np.ndarray,
        known: np.ndarray,
        company: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        past_rows: np.ndarray | None = None,
    ) -> Tensor:
        return self.forward(Tensor(past[:, :, CLOSE_COLUMN]))


class TftLite(Module):
    """A compact temporal fusion forecaster.

    Static company embedding conditions per-timestep variable selection; an
    LSTM encoder and causal multi-head self-attention summarize the window;
    the final attended position passes through a gated feed-forward block
    and, joined with the known future calendar covariates, an affine head
    produces all horizon steps at once.  Nothing else reads the attention,
    so it runs for the final position only, which under the causal mask
    attends to every step.  `var_proj` holds the per-input Linear(1, hcs)
    maps; the selector applies all of them in one op.
    """

    kind = "tft_lite"

    def __init__(self, config: TrainConfig, n_features: int, n_companies: int, rng: np.random.Generator):
        config.validate()
        if n_features < 1 or n_companies < 1:
            raise ConfigError(f"need >= 1 feature and company, got {n_features}, {n_companies}")
        self.config = config
        self.n_features = n_features
        self.n_companies = n_companies
        hidden = config.hidden_size
        hcs = config.hidden_continuous_size
        norm = config.norm_type
        drop = config.dropout

        self.company_embedding = Parameter(
            rng.normal(0.0, 0.1, size=(n_companies, hidden)), "tft.static.embedding"
        )
        self.var_proj = [
            Linear(1, hcs, f"tft.varproj{i}", rng) for i in range(n_features)
        ]
        self.selector = VariableSelection(
            n_features, hcs, hidden, "tft.vsn", rng,
            d_context=hidden, dropout_rate=drop, norm_type=norm,
        )
        self.encoder = LstmEncoder(hidden, hidden, config.lstm_layers, "tft.lstm", rng)
        self.enrichment = GatedResidualNetwork(
            hidden, hidden, hidden, "tft.enrich", rng,
            d_context=hidden, dropout_rate=drop, norm_type=norm,
        )
        self.attention = MultiHeadAttention(hidden, config.n_heads, "tft.attn", rng)
        self.position_ff = GatedResidualNetwork(
            hidden, hidden, hidden, "tft.posff", rng,
            dropout_rate=drop, norm_type=norm, ff_variant=config.feed_forward,
        )
        self.head = Linear(hidden + config.horizon * KNOWN_DIM, config.horizon, "tft.head", rng)
        self.head.bias.data[:] = 0.0  # start forecasts at the unbiased origin

    def forward_batch(
        self,
        past: np.ndarray,
        known: np.ndarray,
        company: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        past_rows: np.ndarray | None = None,
    ) -> Tensor:
        """`past_rows`, the (batch, steps) panel-row index of each past step, lets
        windows that hold the same row share its variable selection."""
        batch, steps, n_features = past.shape
        cfg = self.config
        if n_features != self.n_features:
            raise ShapeError(f"expected {self.n_features} features, got {n_features}")
        if steps != cfg.lookback:
            raise ShapeError(f"expected lookback {cfg.lookback}, got {steps}")
        if known.shape != (batch, cfg.horizon, KNOWN_DIM):
            raise ShapeError(f"known-future shape {known.shape} does not match config")
        if past_rows is not None and past_rows.shape != (batch, steps):
            raise ShapeError(f"past_rows shape {past_rows.shape} does not match past {(batch, steps)}")

        company = np.asarray(company, dtype=np.int64)
        static = self.company_embedding[company]  # (batch, hidden)
        context = static.repeat_rows(steps)  # (batch*steps, hidden), sample-major

        # Variable selection is row-wise, so windows that hold the same panel
        # row share its result.  Dropout masks are drawn per row, so rows are
        # shared only when none is drawn.
        flat_past = past.reshape(batch * steps, n_features)
        first = inverse = None
        if past_rows is not None and not (training and cfg.dropout > 0.0):
            _, first, inverse = np.unique(past_rows.ravel(), return_index=True, return_inverse=True)
        if first is None or len(first) == len(inverse):
            combined, _ = self.selector(Tensor(flat_past), self.var_proj, context, training=training, rng=rng)
        else:
            # Rows are stacked per company, so a row's index fixes its company.
            combined, _ = self.selector(
                Tensor(flat_past[first]), self.var_proj, self.company_embedding[company[first // steps]],
                training=training, rng=rng,
            )
            combined = combined[inverse]  # backward adds the gradients of repeated rows

        encoded = self.encoder(combined.reshape(batch, steps, cfg.hidden_size))
        del combined  # under no_grad, nothing else holds the selector's output

        enriched = self.enrichment(
            encoded.reshape(batch * steps, cfg.hidden_size), context, training=training, rng=rng
        ).reshape(batch, steps, cfg.hidden_size)

        # Only the last position reaches the head, and under the causal mask
        # it sees every position: its mask row is all zeros.
        last = enriched[:, steps - 1 : steps, :]
        final = self.attention(last, enriched, enriched).reshape(batch, cfg.hidden_size)
        final = self.position_ff(final, training=training, rng=rng)

        head_input = concat([final, Tensor(known.reshape(batch, cfg.horizon * KNOWN_DIM))], axis=-1)
        return self.head(head_input)
