import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab.stats import (
    EXACT_ENUM_MAX,
    ConstantInputError,
    TrainingTrace,
    average_ranks,
    correlate_trace,
    excess_risk,
    pearson,
    spearman,
)


# --- independent brute-force oracle: counting ranks, sum-based Pearson -----


def brute_rank(values):
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def brute_pearson(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.sqrt(sum((x - ma) ** 2 for x in a))
    db = math.sqrt(sum((y - mb) ** 2 for y in b))
    return num / (da * db)


def brute_spearman(x, y):
    return brute_pearson(brute_rank(list(x)), brute_rank(list(y)))


def enum_permutation_p(x, y):
    rx, ry = brute_rank(list(x)), brute_rank(list(y))
    obs = abs(brute_pearson(rx, ry))
    hits = total = 0
    for perm in itertools.permutations(ry):
        total += 1
        if abs(brute_pearson(rx, list(perm))) >= obs - 1e-12:
            hits += 1
    return hits / total


def enum_doubled_rank_hits(x, y):
    """Orderings of y whose |sum a_i b_pi(i)| over the doubled centred
    midranks a, b (integers, ties included) reaches the observed value."""
    n = len(x)
    a = [round(2 * r) - (n + 1) for r in brute_rank(list(x))]
    b = [round(2 * r) - (n + 1) for r in brute_rank(list(y))]
    observed = abs(sum(p * q for p, q in zip(a, b)))
    return sum(
        1 for perm in itertools.permutations(b) if abs(sum(p * q for p, q in zip(a, perm))) >= observed
    )


class TestRanks:
    def test_no_ties(self):
        np.testing.assert_array_equal(average_ranks([30.0, 10.0, 20.0]), [3.0, 1.0, 2.0])

    def test_midranks(self):
        np.testing.assert_array_equal(
            average_ranks([1.0, 2.0, 2.0, 3.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_matches_counting_oracle(self, rng):
        for _ in range(50):
            x = rng.integers(0, 5, size=12).astype(float)
            np.testing.assert_allclose(average_ranks(x), brute_rank(list(x)), atol=1e-12)


class TestSpearmanCoefficient:
    def test_perfect_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, np.exp(x)).scc == 1.0
        assert spearman(x, -(x**3)).scc == -1.0

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(5, 30))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float) + 0.25 * x
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            got = spearman(x, y, p_method="t").scc
            assert got == pytest.approx(brute_spearman(x, y), abs=1e-12)

    def test_symmetry(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert spearman(x, y, p_method="t").scc == spearman(y, x, p_method="t").scc

    def test_constant_sequence_rejected(self):
        with pytest.raises(ConstantInputError):
            spearman(np.ones(5), np.arange(5.0))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman([1.0, 2.0], [2.0, 1.0])

    def test_nan_rejected(self):
        # nan sorts last, so ranking it would give it the top rank
        with pytest.raises(ValueError, match="nan"):
            spearman([1.0, math.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="nan"):
            spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.nan, 4.0])

    def test_infinities_rank_as_extremes(self):
        y = [1.0, 4.0, 2.0, 3.0, 5.0]
        got = spearman([1.0, math.inf, 3.0, -math.inf, 4.0], y)
        assert got == spearman([1.0, 9.0, 3.0, -9.0, 4.0], y)


class TestPValues:
    def test_exact_matches_enumeration_small_n(self, rng):
        for _ in range(8):
            n = int(rng.integers(4, 8))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.5 * x
            mine = spearman(x, y, p_method="exact").p
            ref = enum_permutation_p(x, y)
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_exact_with_ties_matches_enumeration(self, rng):
        for _ in range(4):
            n = 6
            x = rng.integers(0, 3, size=n).astype(float)
            y = rng.integers(0, 3, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            mine = spearman(x, y, p_method="exact").p
            assert mine == pytest.approx(enum_permutation_p(x, y), abs=1e-12)

    @pytest.mark.parametrize("ties", [False, True])
    def test_exact_is_integer_count_over_n_factorial(self, rng, ties):
        for n in (3, 4, 5, 6, 7, 8, 8):
            if ties:
                x = rng.integers(0, 3, size=n).astype(float)
                y = rng.integers(0, 3, size=n).astype(float)
                if len(set(x)) < 2 or len(set(y)) < 2:
                    continue
            else:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n) + 0.5 * x
            p = spearman(x, y, p_method="exact").p
            assert p == enum_doubled_rank_hits(x, y) / math.factorial(n)

    def test_exact_t_overlap_zone(self, rng):
        # agreement between the exact and asymptotic methods at the largest
        # enumerable sizes
        diffs = []
        for _ in range(10):
            n = int(rng.integers(9, EXACT_ENUM_MAX + 1))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.6 * x
            pe = spearman(x, y, p_method="exact").p
            pt = spearman(x, y, p_method="t").p
            diffs.append(abs(pe - pt))
        assert max(diffs) <= 0.02

    def test_p_decreases_with_n_for_fixed_pattern(self):
        # same rank pattern (perfect agreement) at growing lengths
        ps = []
        for n in (12, 24, 48, 96):
            x = np.arange(float(n))
            y = x + 0.0
            y[0], y[1] = y[1], y[0]  # one swap keeps |scc| < 1
            ps.append(spearman(x, y, p_method="t").p)
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_exact_refuses_infeasible_n(self, rng):
        x = rng.standard_normal(EXACT_ENUM_MAX + 1)
        y = rng.standard_normal(EXACT_ENUM_MAX + 1)
        with pytest.raises(ValueError, match="not feasible"):
            spearman(x, y, p_method="exact")

    def test_auto_switches_method(self, rng):
        small = spearman(rng.standard_normal(6), rng.standard_normal(6))
        large = spearman(rng.standard_normal(30), rng.standard_normal(30))
        assert small.method == "exact"
        assert large.method == "t"

    def test_p_in_unit_interval(self, rng):
        for n in (5, 10, 40):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            p = spearman(x, y).p
            assert 0.0 < p <= 1.0

    def test_perfect_monotone_large_n_p_positive(self):
        x = np.arange(50.0)
        r = spearman(x, x * 2.0)
        assert r.scc == 1.0
        assert r.p > 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["exp", "cube", "affine"]))
def test_rank_invariance_under_monotone_transforms(seed, transform):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    base = spearman(x, y, p_method="t").scc
    f = {
        "exp": np.exp,
        "cube": lambda v: v**3,
        "affine": lambda v: 3.0 * v + 7.0,
    }[transform]
    assert spearman(f(x), y, p_method="t").scc == pytest.approx(base, abs=1e-12)
    assert spearman(x, f(y), p_method="t").scc == pytest.approx(base, abs=1e-12)


class TestExcessRisk:
    def test_hand_value(self):
        assert excess_risk(1.0, 0.9) == pytest.approx(0.1)

    def test_identity_case(self):
        assert excess_risk(0.73, 0.73) == 0.0

    def test_collapses_to_test_error_at_zero_train_error(self):
        assert excess_risk(1.0, 0.87) == pytest.approx(1.0 - 0.87)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            excess_risk(1.2, 0.5)


def make_trace(sn, er):
    n = len(sn)
    return TrainingTrace(
        epoch=np.arange(1, n + 1),
        train_loss=np.zeros(n),
        train_acc=np.ones(n),
        test_acc=np.ones(n),
        excess_risk=np.asarray(er, dtype=float),
        sn_product=np.asarray(sn, dtype=float),
        r_a=np.full(n, np.nan),
        layer_norms=[[] for _ in range(n)],
    )


class TestCorrelateTrace:
    def test_identical_series_perfect(self):
        vals = np.linspace(1.0, 2.0, 12)
        res = correlate_trace(make_trace(vals, vals))
        assert res.scc == 1.0

    def test_skips_epochs_without_analysis(self):
        sn = np.array([1.0, np.nan, 2.0, np.nan, 3.0, 4.0])
        er = np.array([0.1, 0.9, 0.2, 0.9, 0.3, 0.4])
        res = correlate_trace(make_trace(sn, er))
        assert res.scc == 1.0

    def test_shuffled_pairing_null(self, rng):
        vals = []
        for _ in range(100):
            sn = rng.standard_normal(50)
            er = rng.permutation(rng.standard_normal(50))
            vals.append(abs(correlate_trace(make_trace(sn, er)).scc))
        assert float(np.mean(vals)) < 0.3

    def test_needs_three_epochs(self):
        with pytest.raises(ValueError, match="3 epochs"):
            correlate_trace(make_trace([1.0, 2.0], [0.0, 0.1]))

    def test_column_length_mismatch(self):
        trace = make_trace([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        for name in ("train_acc", "r_a", "layer_norms"):
            columns = {**vars(trace), name: getattr(trace, name)[:2]}
            with pytest.raises(ValueError, match=f"column {name} length mismatch"):
                TrainingTrace(**columns)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TrainingTrace(
                epoch=np.array([1, 1]),
                train_loss=np.zeros(2),
                train_acc=np.zeros(2),
                test_acc=np.zeros(2),
                excess_risk=np.zeros(2),
                sn_product=np.zeros(2),
                r_a=np.zeros(2),
                layer_norms=[[], []],
            )
