import math

import mpmath
import numpy as np
import pytest

from lvseg.errors import ContractViolation
from lvseg.stats import (AnovaTable, PairedSeries, anova_oneway, bland_altman, box_summary,
                         paired_t_pvalue, pearson_fit)


def _series(auto, man, name="volume"):
    return PairedSeries(auto=np.asarray(auto, float), man=np.asarray(man, float), name=name)


# -- Bland-Altman ---------------------------------------------------------------

def test_identical_series_all_zero():
    s = _series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    ba = bland_altman(s)
    assert ba.bias == 0.0 and ba.rpc == 0.0
    assert ba.loa_low == 0.0 and ba.loa_high == 0.0


def test_rpc_equals_loa_half_width_machine_precision():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        man = rng.uniform(10, 200, n)
        ba = bland_altman(_series(man + rng.normal(0, 5, n), man))
        assert ba.rpc == (ba.loa_high - ba.loa_low) / 2.0


def _series_with(bias, sd, n=2, base=50.0):
    # two-point construction: differences bias -/+ sd/sqrt(2) have sample SD = sd
    s = sd / math.sqrt(2.0)
    man = np.array([base, base * 2.0])
    d = np.array([bias - s, bias + s])
    return _series(man + d, man)


@pytest.mark.parametrize("name,lo,hi,reported_rpc", [
    ("volume", -24.28, 19.35, 21.81),
    ("area", -4.02, 3.4, 3.71),
    ("length", -0.63, 0.66, 0.65),
    ("EF", -14.79, 13.01, 13.9),
])
def test_reported_reproducibility_rows_are_self_consistent(name, lo, hi, reported_rpc):
    # reconstruct each published row from its confidence interval: the RPC
    # must equal the interval half-width
    bias = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    ba = bland_altman(_series_with(bias, half / 1.96))
    assert abs(ba.rpc - half) < 1e-9
    assert abs(ba.rpc - reported_rpc) <= 0.01
    assert abs(ba.bias - bias) < 1e-9


def test_cv_divides_the_sd_by_the_sum_of_the_means():
    s = _series([12.0, 15.0], [10.0, 12.0])  # differences 2 and 3, means 13.5 and 11
    assert bland_altman(s).cv_pct == pytest.approx(math.sqrt(0.5) / 24.5 * 100.0, rel=1e-12)


def test_cv_zero_denominator_is_nan_not_exception():
    s = _series([1.0, -1.0], [-1.0, 1.0])  # means cancel
    assert math.isnan(bland_altman(s).cv_pct)


def test_series_validation():
    with pytest.raises(ContractViolation):
        _series([1.0], [1.0])
    with pytest.raises(ContractViolation):
        _series([1.0, 2.0], [1.0, 2.0, 3.0])


# -- correlation fit ---------------------------------------------------------------

def test_fit_identity():
    f = pearson_fit(_series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    assert f.slope == pytest.approx(1.0) and f.intercept == pytest.approx(0.0)
    assert f.r == pytest.approx(1.0)


def test_fit_negation():
    f = pearson_fit(_series([-1.0, -2.0, -3.5], [1.0, 2.0, 3.5]))
    assert f.r == pytest.approx(-1.0)


def test_fit_exact_line():
    f = pearson_fit(_series([5.0, 7.0, 9.0], [1.0, 2.0, 3.0]))
    assert f.slope == pytest.approx(2.0)
    assert f.intercept == pytest.approx(3.0)
    assert f.r == pytest.approx(1.0)


def test_fit_constant_manual_rejected():
    with pytest.raises(ContractViolation):
        pearson_fit(_series([1.0, 2.0], [3.0, 3.0]))


@pytest.mark.parametrize("side", ["auto", "manual"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_values_naming_the_side(side, bad):
    with_bad, clean = [1.0, bad, 3.0], [1.0, 2.0, 3.0]
    auto, man = (with_bad, clean) if side == "auto" else (clean, with_bad)
    with pytest.raises(ContractViolation, match=f"{side} values must be finite"):
        pearson_fit(_series(auto, man))


# -- ANOVA ---------------------------------------------------------------------------

def test_published_anova_sums_reproduce():
    t = AnovaTable(ss_between=3.524, ss_within=2.198, df_between=3, df_within=12)
    assert abs(t.ms_between - 1.1747) <= 0.005
    assert abs(t.f - 6.41) <= 0.02
    assert abs(t.p - 0.0077) <= 0.0005
    assert t.ss_total == pytest.approx(3.524 + 2.198)
    assert t.df_total == 15


def test_anova_identical_groups():
    g = np.array([1.0, 2.0, 3.0])
    t = anova_oneway([g, g.copy(), g.copy()])
    assert t.ss_between == pytest.approx(0.0, abs=1e-12)
    assert t.f == 0.0
    assert t.p == 1.0


def test_anova_mean_square_identity():
    rng = np.random.default_rng(1)
    groups = [rng.normal(k, 1.0, size=rng.integers(3, 9)) for k in range(4)]
    t = anova_oneway(groups)
    assert t.ms_between == pytest.approx(t.ss_between / t.df_between)
    assert t.ms_within == pytest.approx(t.ss_within / t.df_within)
    assert t.df_total == sum(len(g) for g in groups) - 1
    # total sum of squares decomposes
    allv = np.concatenate(groups)
    ss_total = float(((allv - allv.mean()) ** 2).sum())
    assert t.ss_between + t.ss_within == pytest.approx(ss_total)


def test_two_group_anova_equals_squared_t():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        g1, g2 = rng.normal(0, 1, n), rng.normal(0.7, 1, n)
        # pooled two-sample t computed directly
        sp2 = (((g1 - g1.mean()) ** 2).sum() + ((g2 - g2.mean()) ** 2).sum()) / (2 * n - 2)
        t_stat = (g1.mean() - g2.mean()) / math.sqrt(sp2 * 2.0 / n)
        table = anova_oneway([g1, g2])
        assert table.f == pytest.approx(t_stat ** 2, rel=1e-10)


def test_anova_input_validation():
    with pytest.raises(ContractViolation):
        anova_oneway([np.array([1.0, 2.0])])
    with pytest.raises(ContractViolation):
        anova_oneway([np.array([1.0]), np.array([2.0])])  # df_within = 0
    with pytest.raises(ContractViolation):
        AnovaTable(ss_between=1.0, ss_within=1.0, df_between=0, df_within=5)


# -- F tail -----------------------------------------------------------------------

def _f_tail(f, d1, d2):
    """``AnovaTable.p`` of a table whose F statistic is ``f``."""
    return AnovaTable(ss_between=f * d1, ss_within=d2, df_between=d1, df_within=d2).p


def test_f_sf_edge_values():
    assert _f_tail(0.0, 3, 12) == 1.0
    assert _f_tail(1.0, 5, 5) == pytest.approx(0.5, abs=1e-12)
    assert _f_tail(6.41, 3, 12) == pytest.approx(0.0077, abs=0.0005)
    # two constant groups with different means: no spread within, F = inf
    t = anova_oneway([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
    assert (t.f, t.p) == (float("inf"), 0.0)


def test_f_sf_against_numeric_integration():
    # oracle: quadrature of the F density over (f, inf)
    def oracle(f, d1, d2):
        d1, d2 = mpmath.mpf(d1), mpmath.mpf(d2)

        def pdf(x):
            num = (d1 / d2) ** (d1 / 2) * x ** (d1 / 2 - 1)
            den = (1 + d1 * x / d2) ** ((d1 + d2) / 2) * mpmath.beta(d1 / 2, d2 / 2)
            return num / den

        return float(mpmath.quad(pdf, [f, mpmath.inf]))

    for f, d1, d2 in [(0.5, 1, 1), (1.7, 2, 7), (6.41, 3, 12), (3.3, 5, 2),
                      (0.9, 10, 10), (12.0, 4, 20), (2.2, 7, 3)]:
        assert abs(_f_tail(f, d1, d2) - oracle(f, d1, d2)) < 1e-6


# -- paired t and box summary --------------------------------------------------------

def test_paired_t_matches_scipy():
    from scipy import stats as sps
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        man = rng.uniform(0, 10, n)
        auto = man + rng.normal(0.4, 1.0, n)
        p = paired_t_pvalue(_series(auto, man))
        ref = sps.ttest_rel(auto, man).pvalue
        assert p == pytest.approx(ref, rel=1e-9)


def test_t_sf_symmetric_in_sign():
    auto, man = [3.1, 4.0, 6.2, 7.9, 9.5], [2.0, 4.4, 5.1, 6.0, 9.0]
    p = paired_t_pvalue(_series(auto, man))
    assert 0.0 < p < 1.0
    assert paired_t_pvalue(_series(man, auto)) == p


def test_box_summary_quartiles_and_whiskers():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0])
    b = box_summary(v)
    assert b.q1 == pytest.approx(np.percentile(v, 25))
    assert b.median == pytest.approx(np.percentile(v, 50))
    assert b.q3 == pytest.approx(np.percentile(v, 75))
    assert b.whisker_high == 7.0  # the outlier sits beyond the 1.5 IQR fence
    assert b.whisker_low == 1.0
