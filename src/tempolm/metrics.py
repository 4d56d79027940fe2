"""Evaluation metrics: ACC, MAE, correlations, MRR, MAP, Welch t-test.

Correlations use the standard product-moment formulas; the rank correlation
is the product-moment correlation of average ranks (ties averaged). The
t-test is the unequal-variance (Welch) two-sample variant with a two-tailed
p-value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, EmptyEvalError, UndefinedMetricError


@dataclass
class MetricReport:
    acc: float | None = None          # percentage in [0, 100]
    mae: float | None = None          # granularity units, >= 0
    pearson: float | None = None
    spearman: float | None = None
    mrr: float | None = None
    map_score: float | None = None
    p_value: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.acc is not None and not 0.0 <= self.acc <= 100.0:
            raise ConfigError(f"acc out of range: {self.acc}")
        if self.mae is not None and self.mae < 0:
            raise ConfigError(f"mae must be >= 0: {self.mae}")
        for name in ("pearson", "spearman"):
            v = getattr(self, name)
            if v is not None and not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
                raise ConfigError(f"{name} out of range: {v}")
        for name in ("mrr", "map_score"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} out of range: {v}")

    def to_json(self) -> dict:
        out = {
            "acc": self.acc,
            "mae": self.mae,
            "pearson": self.pearson,
            "spearman": self.spearman,
            "mrr": self.mrr,
            "map": self.map_score,
            "p_value": self.p_value,
        }
        out.update(self.metadata)
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def metric_acc(preds: Sequence[int], golds: Sequence[int]) -> float:
    """Percentage of exact matches."""
    if len(preds) != len(golds):
        raise ConfigError("prediction/gold length mismatch")
    if not preds:
        raise EmptyEvalError("accuracy over zero instances")
    matches = sum(1 for p, g in zip(preds, golds) if p == g)
    return 100.0 * matches / len(preds)


def metric_mae(preds: Sequence[int], golds: Sequence[int]) -> float:
    """Mean absolute index difference, in label-granularity units."""
    if len(preds) != len(golds):
        raise ConfigError("prediction/gold length mismatch")
    if not preds:
        raise EmptyEvalError("MAE over zero instances")
    return float(np.mean([abs(p - g) for p, g in zip(preds, golds)]))


def metric_pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("inputs must be equal-length vectors")
    if x.size < 2:
        raise DegenerateInputError("correlation needs at least two points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0.0:
        raise DegenerateInputError("zero variance input")
    return float((xc * yc).sum() / denom)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties averaged."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def metric_spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation of average ranks."""
    return metric_pearson(average_ranks(x), average_ranks(y))


def metric_mrr(ranks: Sequence[int]) -> float:
    """Mean reciprocal rank from 1-based ranks of the first relevant item."""
    if not ranks:
        raise EmptyEvalError("MRR over zero lists")
    if any(r < 1 for r in ranks):
        raise UndefinedMetricError("ranks are 1-based; a list had no relevant item")
    return float(np.mean([1.0 / r for r in ranks]))


def average_precision(relevance: Sequence[int]) -> float:
    """AP of one ranked 0/1 relevance list."""
    hits = 0
    precisions = []
    for i, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            precisions.append(hits / i)
    if not precisions:
        raise UndefinedMetricError("no relevant item in ranking")
    return float(np.mean(precisions))


def metric_map(relevance_lists: Sequence[Sequence[int]]) -> float:
    if not relevance_lists:
        raise EmptyEvalError("MAP over zero lists")
    return float(np.mean([average_precision(r) for r in relevance_lists]))


def two_tailed_ttest(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Welch two-sample t statistic and two-tailed p-value."""
    from scipy.special import stdtr  # here, not at module top: importing scipy costs ~17 MiB and ~0.2 s
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ConfigError("t-test needs at least two samples per side")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    diff = a.mean() - b.mean()
    if va == 0.0 and vb == 0.0:
        return (0.0, 1.0) if diff == 0.0 else (np.inf if diff > 0 else -np.inf, 0.0)
    se2 = va / a.size + vb / b.size
    t = diff / np.sqrt(se2)
    df = se2**2 / ((va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1))
    p = 2.0 * stdtr(df, -abs(t))
    return float(t), float(p)


def random_guess_baseline(
    n_classes: int,
    golds: Sequence[int],
    trials: int = 1000,
    seed: int = 0,
) -> MetricReport:
    """Mean ACC/MAE of uniform guessing against the gold labels."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not golds:
        raise EmptyEvalError("baseline over zero instances")
    if n_classes == 1:
        return MetricReport(acc=100.0, mae=0.0, metadata={"trials": trials, "classes": 1})
    rng = np.random.Generator(np.random.PCG64(seed))
    golds_arr = np.asarray(golds)
    accs = np.empty(trials)
    maes = np.empty(trials)
    for t in range(trials):
        guesses = rng.integers(0, n_classes, size=golds_arr.size)
        accs[t] = 100.0 * np.mean(guesses == golds_arr)
        maes[t] = np.mean(np.abs(guesses - golds_arr))
    return MetricReport(
        acc=float(accs.mean()),
        mae=float(maes.mean()),
        metadata={"trials": trials, "classes": n_classes},
    )
