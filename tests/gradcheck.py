"""Central-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from senticast.errors import ValidationError
from senticast.nn.autograd import Parameter, Tensor, no_grad, zero_grads

REL_FLOOR = 1e-8


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    tol: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def failures(self) -> list[str]:
        return [e.name for e in self.entries if e.max_rel_err > self.tol]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "ok" if self.passed else f"FAIL ({len(self.failures)} params)"
        return f"gradcheck {state}: max rel err {self.max_rel_err:.3e} vs tol {self.tol:.1e}"


def gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    delta: float = 1e-5,
    tol: float = 1e-4,
    max_coords_per_param: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against (f(x+d)-f(x-d))/2d coordinate-wise.

    Relative error uses |a - n| / max(|a|, |n|, 1e-8).  The function is
    re-evaluated with gradients disabled, so it must be deterministic.  By
    default every coordinate is checked; a cap samples evenly spaced
    coordinates per parameter (every parameter is still visited).
    """
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    zero_grads(params)
    out = f()
    out.backward()
    analytic = {
        id(p): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params
    }

    report = GradCheckReport(tol=tol)
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            grads = analytic[id(p)].reshape(-1)
            if max_coords_per_param is None or flat.size <= max_coords_per_param:
                coords = range(flat.size)
            else:
                coords = np.unique(
                    np.linspace(0, flat.size - 1, max_coords_per_param).astype(int)
                )
            worst = 0.0
            checked = 0
            for idx in coords:
                original = flat[idx]
                flat[idx] = original + delta
                f_plus = float(f().data)
                flat[idx] = original - delta
                f_minus = float(f().data)
                flat[idx] = original
                numeric = (f_plus - f_minus) / (2.0 * delta)
                a = grads[idx]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
                if rel > worst:
                    worst = rel
                checked += 1
            report.entries.append(GradCheckEntry(p.name, worst, checked))
    return report
