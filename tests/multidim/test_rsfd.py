"""Tests for the RS+FD solution and its estimators."""

import numpy as np
import pytest

from repro.core.composition import amplified_epsilon
from repro.core.dataset import TabularDataset
from repro.core.domain import Domain
from repro.exceptions import InvalidParameterError
from repro.multidim.rsfd import RSFD


@pytest.fixture
def skewed_dataset():
    rng = np.random.default_rng(0)
    domain = Domain.from_sizes([6, 4, 8])
    n = 40000
    columns = []
    for attr in domain:
        weights = np.arange(attr.size, 0, -1, dtype=float) ** 2
        weights /= weights.sum()
        columns.append(rng.choice(attr.size, size=n, p=weights))
    return TabularDataset.from_columns(columns, domain)


class TestConfiguration:
    def test_labels(self):
        domain = Domain.from_sizes([3, 3])
        assert RSFD(domain, 1.0, variant="grr").label == "RS+FD[GRR]"
        assert RSFD(domain, 1.0, variant="ue-z", ue_kind="SUE").label == "RS+FD[SUE-z]"
        assert RSFD(domain, 1.0, variant="ue-r", ue_kind="OUE").label == "RS+FD[OUE-r]"

    def test_invalid_variant_rejected(self):
        with pytest.raises(InvalidParameterError):
            RSFD(Domain.from_sizes([3, 3]), 1.0, variant="bogus")

    @pytest.mark.parametrize("variant", ["ue-z", "ue-r"])
    def test_unknown_ue_kind_rejected_at_construction(self, variant):
        with pytest.raises(InvalidParameterError):
            RSFD(Domain.from_sizes([3, 3]), 1.0, variant=variant, ue_kind="XUE")

    def test_amplified_epsilon(self):
        domain = Domain.from_sizes([3, 3, 3])
        solution = RSFD(domain, 1.0, variant="grr")
        assert solution.amplified_epsilon == pytest.approx(amplified_epsilon(1.0, 3))
        assert solution.amplified_epsilon > 1.0


class TestCollection:
    def test_grr_reports_shape_and_domain(self, tiny_dataset):
        solution = RSFD(tiny_dataset.domain, 1.0, variant="grr", rng=0)
        reports = solution.collect(tiny_dataset)
        assert reports.sampled.shape == (tiny_dataset.n,)
        for j, column in enumerate(reports.per_attribute):
            assert column.shape == (tiny_dataset.n,)
            assert column.min() >= 0 and column.max() < tiny_dataset.sizes[j]

    @pytest.mark.parametrize("variant", ["ue-z", "ue-r"])
    def test_ue_reports_are_bit_matrices(self, tiny_dataset, variant):
        solution = RSFD(tiny_dataset.domain, 1.0, variant=variant, ue_kind="OUE", rng=0)
        reports = solution.collect(tiny_dataset)
        for j, column in enumerate(reports.per_attribute):
            assert column.shape == (tiny_dataset.n, tiny_dataset.sizes[j])
            assert set(np.unique(column)) <= {0, 1}

    def test_sampled_attribute_hidden_from_tuple_structure(self, tiny_dataset):
        # every user contributes a value for every attribute (unlike SMP)
        solution = RSFD(tiny_dataset.domain, 1.0, variant="grr", rng=0)
        reports = solution.collect(tiny_dataset)
        assert reports.user_indices is None
        assert len(reports.per_attribute) == tiny_dataset.d

    def test_fixed_sampling_respected(self, tiny_dataset):
        sampled = np.zeros(tiny_dataset.n, dtype=np.int64)
        solution = RSFD(tiny_dataset.domain, 1.0, variant="grr", rng=0)
        reports = solution.collect(tiny_dataset, sampled=sampled)
        np.testing.assert_array_equal(reports.sampled, sampled)

    def test_ue_z_fake_data_has_fewer_bits_than_true_reports(self, tiny_dataset):
        # the statistical signature exploited by the attribute-inference attack
        solution = RSFD(tiny_dataset.domain, 5.0, variant="ue-z", ue_kind="SUE", rng=0)
        sampled = np.zeros(tiny_dataset.n, dtype=np.int64)
        reports = solution.collect(tiny_dataset, sampled=sampled)
        true_bits = reports.per_attribute[0].sum(axis=1).mean()
        fake_bits = reports.per_attribute[1].sum(axis=1).mean()
        assert true_bits > fake_bits


class TestEstimators:
    @pytest.mark.parametrize(
        "variant, ue_kind",
        [("grr", "OUE"), ("ue-z", "SUE"), ("ue-z", "OUE"), ("ue-r", "SUE"), ("ue-r", "OUE")],
    )
    def test_estimators_are_unbiased(self, skewed_dataset, variant, ue_kind):
        solution = RSFD(skewed_dataset.domain, np.log(5), variant=variant, ue_kind=ue_kind, rng=1)
        _, estimates = solution.collect_and_estimate(skewed_dataset)
        for j, estimate in enumerate(estimates):
            np.testing.assert_allclose(
                estimate.estimates, skewed_dataset.frequencies(j), atol=0.05
            )

    def test_estimates_metadata(self, tiny_dataset):
        solution = RSFD(tiny_dataset.domain, 1.0, variant="grr", rng=0)
        _, estimates = solution.collect_and_estimate(tiny_dataset)
        assert estimates[0].metadata["protocol"] == "RS+FD[GRR]"
        assert estimates[0].metadata["amplified_epsilon"] > 1.0
