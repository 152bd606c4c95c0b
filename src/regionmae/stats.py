"""Evaluation metrics and the repeated-measures statistical battery.

AUROC uses the Mann-Whitney rank formulation (ties count half). The Friedman
test ranks within rows with average ranks and applies the tie-corrected
statistic; the Wilcoxon signed-rank test drops zero differences, uses exact
sign enumeration for small samples, and a tie- and continuity-corrected
normal approximation otherwise.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .errors import DegenerateDataError, MetricError, ValidationError

EXACT_WILCOXON_MAX_N = 12
SIGNIFICANT = "*"
TREND = "†"  # dagger
NOT_SIGNIFICANT = "n.s."


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def accuracy(scores, labels, threshold: float = 0.0) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValidationError("scores and labels differ in length")
    return float(np.mean((scores > threshold).astype(int) == labels))


def auroc(scores, labels) -> float:
    """P(score+ > score-) + 0.5 P(tie), via average ranks; labels are 0 or 1."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValidationError("scores and labels differ in length")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("AUROC labels must be 0 or 1")
    labels = labels.astype(int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum_pos = ranks[labels == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def friedman_test(values) -> tuple[float, float]:
    """Tie-corrected Friedman chi-square over an [n_blocks, k] value matrix."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("Friedman input must be a 2D matrix")
    n, k = x.shape
    if n < 3 or k < 2:
        raise ValidationError(f"Friedman needs >=3 rows and >=2 conditions, got {x.shape}")

    ranks = np.vstack([_average_ranks(row) for row in x])
    col_sums = ranks.sum(axis=0)
    a = float((ranks ** 2).sum())
    c = n * k * (k + 1) ** 2 / 4.0
    if a == c:
        raise DegenerateDataError("every block is constant across conditions")
    stat = (k - 1) * float(((col_sums - n * (k + 1) / 2.0) ** 2).sum()) / (a - c)
    p = float(chi2.sf(stat, k - 1))
    return stat, p


def _wilcoxon_prepare(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError("Wilcoxon needs paired samples of equal length")
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateDataError("all paired differences are zero")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    return d, ranks, w_plus, w_minus


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """(min(W+, W-), two-sided p); exact for n <= 12, else normal approx."""
    d, ranks, w_plus, w_minus = _wilcoxon_prepare(a, b)
    n = d.size
    stat = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_MAX_N:
        lo, hi = min(w_plus, w_minus), max(w_plus, w_minus)
        count = 0
        for signs in itertools.product((0.0, 1.0), repeat=n):
            w = float(np.dot(signs, ranks))
            if w <= lo + 1e-12 or w >= hi - 1e-12:
                count += 1
        return stat, count / (2.0 ** n)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
    if var <= 0:
        raise DegenerateDataError("zero variance in signed ranks")
    delta = w_plus - mean
    correction = 0.5 * np.sign(delta)
    z = (delta - correction) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return stat, min(1.0, p)


def bonferroni(pvals, m: int | None = None) -> list[float]:
    pvals = list(pvals)
    if m is None:
        m = len(pvals)
    if m < len(pvals):
        raise ValidationError(f"m={m} is smaller than the number of tests {len(pvals)}")
    for p in pvals:
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"p-value {p} outside [0, 1]")
    return [min(1.0, p * m) for p in pvals]


def significance_tier(p: float) -> str:
    if p < 0.05:
        return SIGNIFICANT
    if p < 0.06:
        return TREND
    return NOT_SIGNIFICANT


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    raw_p: float
    corrected_p: float
    tier: str


def correct_and_tier(raw: dict[str, float], m: int | None = None) -> list[ComparisonRow]:
    """Bonferroni-correct a set of named comparisons and attach tiers."""
    names = list(raw)
    corrected = bonferroni([raw[n] for n in names], m)
    return [ComparisonRow(n, raw[n], c, significance_tier(c))
            for n, c in zip(names, corrected)]


def write_stats_csv(path, rows: list[ComparisonRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["comparison", "raw_p", "corrected_p", "tier"])
        for r in rows:
            writer.writerow([r.name, f"{r.raw_p:.10g}", f"{r.corrected_p:.10g}", r.tier])
