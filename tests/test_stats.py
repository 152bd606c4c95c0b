import itertools
import math

import numpy as np
import pytest
from scipy.stats import friedmanchisquare, rankdata

from regionmae.errors import DegenerateDataError, MetricError, ValidationError
from regionmae.stats import (
    NOT_SIGNIFICANT,
    SIGNIFICANT,
    TREND,
    ComparisonRow,
    accuracy,
    auroc,
    bonferroni,
    correct_and_tier,
    friedman_test,
    significance_tier,
    wilcoxon_signed_rank,
    write_stats_csv,
)


def brute_force_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuroc:
    def test_hand_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(0)
        for n in (5, 20, 77, 200):
            scores = rng.choice(np.linspace(0, 1, 17), size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == pytest.approx(
                brute_force_auroc(scores, labels), abs=1e-12)

    def test_flip_complement_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(np.arange(30)).astype(float)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_labels_outside_0_1_rejected(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            auroc([0.1, 0.9, 0.5], [0, 1, 2])


def test_accuracy_thresholds_at_zero():
    assert accuracy([-1.0, 2.0, 0.5, -0.2], [0, 1, 1, 1]) == pytest.approx(0.75)


class TestFriedman:
    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.permutation(np.arange(30, dtype=float)).reshape(10, 3)
            stat, p = friedman_test(x)
            ref_stat, ref_p = friedmanchisquare(x[:, 0], x[:, 1], x[:, 2])
            assert stat == pytest.approx(ref_stat, rel=1e-12)
            assert p == pytest.approx(ref_p, rel=1e-9)

    def test_hand_fixture_with_ties(self):
        x = np.array([
            [1.0, 1.0, 2.0],   # ranks 1.5 1.5 3
            [3.0, 2.0, 1.0],   # ranks 3 2 1
            [2.0, 2.0, 2.0],   # ranks 2 2 2
            [0.0, 5.0, 5.0],   # ranks 1 2.5 2.5
        ])
        stat, p = friedman_test(x)
        assert stat == pytest.approx(0.2, abs=1e-12)
        assert 0.0 < p < 1.0

    def test_strictly_ordered_columns_reach_maximum(self):
        for n in (3, 7, 12):
            x = np.arange(3, dtype=float)[None, :] + np.zeros((n, 1))
            x += np.arange(n, dtype=float)[:, None] * 10
            stat, _ = friedman_test(x)
            assert stat == pytest.approx(2.0 * n, abs=1e-12)

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 4))
        s1, _ = friedman_test(x)
        s2, _ = friedman_test(np.exp(x))
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_constant_rows_everywhere_degenerate(self):
        with pytest.raises(DegenerateDataError):
            friedman_test(np.ones((5, 3)) * np.arange(5)[:, None])

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            friedman_test(np.ones((2, 3)))


def exact_wilcoxon_oracle(a, b):
    """Two-sided p by full sign enumeration, independent rank computation."""
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    lo, hi = min(w_plus, w_minus), max(w_plus, w_minus)
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(d)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= lo + 1e-12 or w >= hi - 1e-12:
            hits += 1
    return hits / 2 ** len(d)


class TestWilcoxon:
    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_exact_matches_enumeration_n6(self):
        a = [1.2, 0.4, 2.2, 3.1, 0.9, 1.1]
        b = [0.8, 0.9, 1.0, 1.5, 0.2, 1.6]
        _, p = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(exact_wilcoxon_oracle(a, b), abs=1e-12)

    def test_exact_matches_enumeration_random_with_ties(self):
        rng = np.random.default_rng(5)
        for n in (5, 8, 11, 12):
            a = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
            b = rng.choice([0.0, 1.0, 2.0], size=n)
            if np.all(a == b):
                a[0] += 1
            _, p = wilcoxon_signed_rank(a, b)
            assert p == pytest.approx(exact_wilcoxon_oracle(a, b), abs=1e-12)

    def test_symmetry_in_argument_order(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        sa, pa = wilcoxon_signed_rank(a, b)
        sb, pb = wilcoxon_signed_rank(b, a)
        assert sa == sb
        assert pa == pytest.approx(pb, abs=1e-12)

    def test_normal_approximation_tracks_exact_at_boundary(self):
        # n=13 uses the approximation; n=13 enumeration is still tractable here
        rng = np.random.default_rng(7)
        a = rng.normal(0.4, 1.0, size=13)
        b = rng.normal(0.0, 1.0, size=13)
        stat, p = wilcoxon_signed_rank(a, b)
        p_exact = exact_wilcoxon_oracle(a, b)
        assert abs(p - p_exact) < 0.02

    def test_large_sample_obvious_shift_is_significant(self):
        rng = np.random.default_rng(8)
        a = rng.normal(1.0, 0.2, size=40)
        b = rng.normal(0.0, 0.2, size=40)
        _, p = wilcoxon_signed_rank(a, b)
        assert p < 1e-6


class TestBonferroniAndTiers:
    def test_examples(self):
        assert bonferroni([0.01], 3) == [pytest.approx(0.03)]
        assert bonferroni([0.5], 3) == [1.0]

    def test_default_m_is_count(self):
        assert bonferroni([0.01, 0.02]) == [pytest.approx(0.02), pytest.approx(0.04)]

    def test_m_too_small_rejected(self):
        with pytest.raises(ValidationError):
            bonferroni([0.1, 0.2, 0.3], m=2)

    def test_bad_p_rejected(self):
        with pytest.raises(ValidationError):
            bonferroni([1.2])

    def test_order_preserved(self):
        ps = [0.001, 0.01, 0.04, 0.3]
        out = bonferroni(ps, 10)
        assert out == sorted(out)

    def test_tiers(self):
        assert significance_tier(0.04) == SIGNIFICANT
        assert significance_tier(0.055) == TREND
        assert significance_tier(0.06) == NOT_SIGNIFICANT
        assert significance_tier(0.5) == NOT_SIGNIFICANT

    def test_correct_and_tier_roundtrip(self, tmp_path):
        rows = correct_and_tier({"any_vs_pure": 0.004, "any_vs_majority": 0.03})
        assert rows[0] == ComparisonRow("any_vs_pure", 0.004, 0.008, SIGNIFICANT)
        assert rows[1].corrected_p == pytest.approx(0.06)
        assert rows[1].tier == NOT_SIGNIFICANT
        out = tmp_path / "stats.csv"
        write_stats_csv(out, rows)
        text = out.read_text()
        assert "any_vs_pure" in text and "0.008" in text
