"""Tests for the analytical protocol analysis (Sec. 3.2.1, Eqs. 4-5)."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import InvalidParameterError
from repro.protocols.analysis import (
    acc_grr,
    acc_olh,
    acc_oue,
    acc_ss,
    acc_sue,
    attacker_accuracy,
    oracle_variance,
    profiling_accuracy_non_uniform,
    profiling_accuracy_uniform,
    unary_attack_accuracy,
)
from repro.protocols.ue import OUE, SUE


class TestSingleReportAccuracies:
    def test_grr_formula(self):
        assert acc_grr(1.0, 10) == pytest.approx(math.e / (math.e + 9))

    def test_olh_formula(self):
        assert acc_olh(1.0, 74) == pytest.approx(1.0 / (2 * 74 / (math.e + 1)))
        # small domain: capped at 1/2
        assert acc_olh(5.0, 4) == pytest.approx(0.5)

    def test_ss_matches_paper_form_for_large_k(self):
        assert acc_ss(1.0, 64) == pytest.approx((math.e + 1) / (2 * 64), rel=0.15)

    def test_all_accuracies_are_probabilities(self):
        for func in (acc_grr, acc_olh, acc_ss, acc_sue, acc_oue):
            for eps in (0.5, 1.0, 5.0, 10.0):
                for k in (2, 7, 74):
                    value = func(eps, k)
                    assert 0.0 < value <= 1.0, (func.__name__, eps, k)

    def test_accuracy_increases_with_epsilon(self):
        for func in (acc_grr, acc_ss, acc_sue, acc_oue):
            values = [func(eps, 16) for eps in (1, 2, 4, 8)]
            assert values == sorted(values), func.__name__

    def test_grr_decreases_with_k(self):
        values = [acc_grr(2.0, k) for k in (2, 8, 32, 128)]
        assert values == sorted(values, reverse=True)

    def test_dispatch(self):
        assert attacker_accuracy("grr", 1.0, 10) == acc_grr(1.0, 10)
        with pytest.raises(InvalidParameterError):
            attacker_accuracy("bogus", 1.0, 10)

    def test_fig1_ordering_at_high_epsilon(self):
        # Fig. 1: GRR, SS and SUE have the highest attacker accuracy
        k = 16
        eps = 8.0
        high = min(acc_grr(eps, k), acc_ss(eps, k), acc_sue(eps, k))
        low = max(acc_olh(eps, k), acc_oue(eps, k))
        assert high > low


def _ue_parameters():
    """``(p, q, k)`` of SUE and OUE over domain sizes 2..500 and eps 0.1..10."""
    for k in (2, 3, 4, 7, 16, 74, 128, 257, 500):
        for eps in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0):
            half = math.exp(eps / 2.0)
            yield half / (half + 1.0), 1.0 / (half + 1.0), k
            yield 0.5, 1.0 / (math.exp(eps) + 1.0), k


def _exact_unary_accuracy(p: float, q: float, k: int) -> Fraction:
    """The UE accuracy sum in exact rational arithmetic (the oracle).

    ``(1-p) (1-q)^{k-1} / k + p * sum_j C(k-1, j) q^j (1-q)^{k-1-j} / (j+1)``,
    the sum taken term by term over one integer common denominator.
    """
    p, q = Fraction(p), Fraction(q)
    n = k - 1
    x, d = q.numerator, q.denominator  # q = x/d, 1 - q = (d - x)/d
    lcm = math.lcm(*range(1, k + 1))
    numerator = sum(
        math.comb(n, j) * x**j * (d - x) ** (n - j) * (lcm // (j + 1)) for j in range(k)
    )
    return (1 - p) * (1 - q) ** n / k + p * Fraction(numerator, lcm * d**n)


class TestUnaryAttackAccuracy:
    """The closed form behind SUE/OUE (Fig. 1) against exact arithmetic."""

    def test_matches_the_exact_binomial_sum(self):
        for p, q, k in _ue_parameters():
            exact = _exact_unary_accuracy(p, q, k)
            assert unary_attack_accuracy(p, q, k) == pytest.approx(float(exact), rel=1e-14)

    def test_matches_the_scipy_binomial_sum(self):
        binom = pytest.importorskip("scipy.stats").binom
        for p, q, k in _ue_parameters():
            i = np.arange(1, k + 1)
            summed = (1.0 - p) * (1.0 - q) ** (k - 1) / k + float(
                np.sum((p / i) * binom.pmf(i - 1, k - 1, q))
            )
            assert unary_attack_accuracy(p, q, k) == pytest.approx(summed, rel=1e-13)

    def test_protocol_and_analysis_share_the_formula(self):
        for eps in (0.5, 3.0):
            assert SUE(k=9, epsilon=eps).expected_attack_accuracy() == acc_sue(eps, 9)
            assert OUE(k=9, epsilon=eps).expected_attack_accuracy() == acc_oue(eps, 9)


    def test_uninformative_bits_give_a_uniform_guess(self):
        # p == q: a set bit says nothing about the true value
        for k in (2, 5, 74):
            for p in (0.1, 0.5, 0.9):
                assert unary_attack_accuracy(p, p, k) == pytest.approx(1.0 / k, rel=1e-14)

    def test_vanishing_flip_probability_limit(self):
        # q -> 0: only the true bit can be set, so the attacker is right
        # whenever it was kept and guesses uniformly otherwise
        for k in (2, 16, 500):
            for p in (0.5, 0.75):
                limit = p + (1.0 - p) / k
                assert unary_attack_accuracy(p, 1e-12, k) == pytest.approx(limit, rel=1e-9)

    def test_single_value_domain_is_always_guessed(self):
        for p, q in ((0.5, 0.2), (0.9, 0.05)):
            assert unary_attack_accuracy(p, q, 1) == pytest.approx(1.0, rel=1e-15)

    def test_bounded_and_increasing_in_epsilon(self):
        epsilons = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
        for k in (2, 16, 128):
            for acc in (acc_sue, acc_oue):
                values = [acc(eps, k) for eps in epsilons]
                assert all(1.0 / k < value < 1.0 for value in values)
                assert values == sorted(values)


def test_runtime_import_does_not_load_scipy():
    """scipy is a test-only dependency: the package must not import it."""
    probe = (
        "import sys, repro, repro.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.strip()
    assert loaded == "[]"


class TestProfilingAccuracies:
    SIZES = (74, 7, 16)

    def test_uniform_is_product(self):
        total = profiling_accuracy_uniform("GRR", 2.0, self.SIZES)
        expected = np.prod([acc_grr(2.0, k) for k in self.SIZES])
        assert total == pytest.approx(expected)

    def test_non_uniform_is_smaller_than_uniform(self):
        for protocol in ("GRR", "OLH", "SS", "SUE", "OUE"):
            uniform = profiling_accuracy_uniform(protocol, 4.0, self.SIZES)
            non_uniform = profiling_accuracy_non_uniform(protocol, 4.0, self.SIZES)
            assert non_uniform < uniform

    def test_non_uniform_factor_is_d_factorial_over_d_power_d(self):
        d = len(self.SIZES)
        uniform = profiling_accuracy_uniform("GRR", 3.0, self.SIZES)
        non_uniform = profiling_accuracy_non_uniform("GRR", 3.0, self.SIZES)
        assert non_uniform / uniform == pytest.approx(math.factorial(d) / d**d)

    def test_empty_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            profiling_accuracy_uniform("GRR", 1.0, [])


class TestVariance:
    def test_variance_positive_and_decreasing_in_epsilon(self):
        for protocol in ("GRR", "OLH", "SS", "SUE", "OUE"):
            values = [oracle_variance(protocol, eps, 32, 1000) for eps in (0.5, 1, 2, 4)]
            assert all(v > 0 for v in values)
            assert values == sorted(values, reverse=True), protocol

    def test_variance_decreasing_in_n(self):
        assert oracle_variance("GRR", 1.0, 10, 10_000) < oracle_variance("GRR", 1.0, 10, 100)

    def test_oue_beats_sue(self):
        assert oracle_variance("OUE", 1.0, 50, 1000) < oracle_variance("SUE", 1.0, 50, 1000)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidParameterError):
            oracle_variance("nope", 1.0, 10, 100)
