"""Tests for the RS+RFD countermeasure (Sec. 5)."""

import numpy as np
import pytest

from repro.core.dataset import TabularDataset
from repro.core.domain import Domain
from repro.exceptions import InvalidParameterError
from repro.metrics.errors import mse_avg
from repro.multidim.rsfd import RSFD
from repro.multidim.rsrfd import RSRFD


@pytest.fixture
def skewed_dataset():
    rng = np.random.default_rng(3)
    domain = Domain.from_sizes([8, 5, 6])
    n = 30000
    columns = []
    for attr in domain:
        weights = np.arange(attr.size, 0, -1, dtype=float) ** 2
        weights /= weights.sum()
        columns.append(rng.choice(attr.size, size=n, p=weights))
    return TabularDataset.from_columns(columns, domain)


def uniform_priors(domain):
    return [np.full(k, 1.0 / k) for k in domain.sizes]


class TestConfiguration:
    def test_labels(self):
        domain = Domain.from_sizes([3, 4])
        priors = uniform_priors(domain)
        assert RSRFD(domain, 1.0, priors, variant="grr").label == "RS+RFD[GRR]"
        assert RSRFD(domain, 1.0, priors, variant="ue-r", ue_kind="SUE").label == "RS+RFD[SUE-r]"

    def test_unknown_ue_kind_rejected_at_construction(self):
        # an unknown kind once built OUE randomizers under an "XUE" label
        domain = Domain.from_sizes([3, 4])
        with pytest.raises(InvalidParameterError):
            RSRFD(domain, 1.0, uniform_priors(domain), variant="ue-r", ue_kind="XUE")

    @pytest.mark.parametrize("kind", ["SUE", "OUE"])
    def test_randomizer_matches_ue_kind(self, kind):
        domain = Domain.from_sizes([3, 4])
        solution = RSRFD(domain, 1.0, uniform_priors(domain), variant="ue-r", ue_kind=kind)
        assert solution._randomizer(0).name == kind

    def test_priors_are_normalized(self):
        domain = Domain.from_sizes([3, 4])
        priors = [np.array([2.0, 1.0, 1.0]), np.ones(4)]
        solution = RSRFD(domain, 1.0, priors, variant="grr")
        assert solution.priors[0].sum() == pytest.approx(1.0)
        assert solution.priors[0][0] == pytest.approx(0.5)

    def test_invalid_priors_rejected(self):
        domain = Domain.from_sizes([3, 4])
        with pytest.raises(InvalidParameterError):
            RSRFD(domain, 1.0, [np.ones(3)], variant="grr")  # wrong count
        with pytest.raises(InvalidParameterError):
            RSRFD(domain, 1.0, [np.ones(2), np.ones(4)], variant="grr")  # wrong length
        with pytest.raises(InvalidParameterError):
            RSRFD(domain, 1.0, [np.array([1.0, -1.0, 1.0]), np.ones(4)], variant="grr")
        with pytest.raises(InvalidParameterError):
            RSRFD(domain, 1.0, [np.zeros(3), np.ones(4)], variant="grr")

    def test_invalid_variant_rejected(self):
        domain = Domain.from_sizes([3, 4])
        with pytest.raises(InvalidParameterError):
            RSRFD(domain, 1.0, uniform_priors(domain), variant="ue-z")


class TestCollection:
    def test_fake_data_follows_prior_grr(self):
        domain = Domain.from_sizes([4, 4])
        priors = [np.array([0.85, 0.05, 0.05, 0.05]), np.full(4, 0.25)]
        rng = np.random.default_rng(0)
        dataset = TabularDataset.from_columns(
            [rng.integers(0, 4, size=8000), rng.integers(0, 4, size=8000)], domain
        )
        solution = RSRFD(domain, 1.0, priors, variant="grr", rng=1)
        # force everyone to sample attribute 1, so attribute 0 is pure fake data
        reports = solution.collect(dataset, sampled=np.ones(dataset.n, dtype=np.int64))
        fake_share = np.mean(np.asarray(reports.per_attribute[0]) == 0)
        assert fake_share == pytest.approx(0.85, abs=0.02)

    def test_ue_r_fake_data_biased_towards_prior_mode(self):
        domain = Domain.from_sizes([4, 4])
        priors = [np.array([0.85, 0.05, 0.05, 0.05]), np.full(4, 0.25)]
        rng = np.random.default_rng(0)
        dataset = TabularDataset.from_columns(
            [rng.integers(0, 4, size=8000), rng.integers(0, 4, size=8000)], domain
        )
        solution = RSRFD(domain, 3.0, priors, variant="ue-r", ue_kind="OUE", rng=1)
        reports = solution.collect(dataset, sampled=np.ones(dataset.n, dtype=np.int64))
        bits = np.asarray(reports.per_attribute[0])
        assert bits[:, 0].mean() > bits[:, 2].mean()


class TestEstimators:
    @pytest.mark.parametrize(
        "variant, ue_kind", [("grr", "OUE"), ("ue-r", "SUE"), ("ue-r", "OUE")]
    )
    def test_estimators_are_unbiased_with_exact_priors(self, skewed_dataset, variant, ue_kind):
        priors = skewed_dataset.all_frequencies()
        solution = RSRFD(
            skewed_dataset.domain, np.log(5), priors, variant=variant, ue_kind=ue_kind, rng=1
        )
        _, estimates = solution.collect_and_estimate(skewed_dataset)
        for j, estimate in enumerate(estimates):
            np.testing.assert_allclose(
                estimate.estimates, skewed_dataset.frequencies(j), atol=0.05
            )

    @pytest.mark.parametrize("variant, ue_kind", [("grr", "OUE"), ("ue-r", "OUE")])
    def test_estimators_are_unbiased_even_with_wrong_priors(self, skewed_dataset, variant, ue_kind):
        # the estimator removes exactly the bias injected by the fake data, so
        # it stays unbiased even when the priors are badly mis-specified
        rng = np.random.default_rng(7)
        priors = [rng.dirichlet(np.ones(k)) for k in skewed_dataset.sizes]
        solution = RSRFD(
            skewed_dataset.domain, np.log(5), priors, variant=variant, ue_kind=ue_kind, rng=1
        )
        _, estimates = solution.collect_and_estimate(skewed_dataset)
        for j, estimate in enumerate(estimates):
            np.testing.assert_allclose(
                estimate.estimates, skewed_dataset.frequencies(j), atol=0.05
            )

    def test_rsrfd_ue_r_improves_on_rsfd_ue_r_with_good_priors(self, skewed_dataset):
        # the headline utility claim of Sec. 5.2.2 for the UE-r family
        epsilon = np.log(3)
        errors_fd, errors_rfd = [], []
        priors = skewed_dataset.all_frequencies()
        for repeat in range(3):
            rsfd = RSFD(skewed_dataset.domain, epsilon, variant="ue-r", ue_kind="OUE", rng=10 + repeat)
            rsrfd = RSRFD(
                skewed_dataset.domain, epsilon, priors, variant="ue-r", ue_kind="OUE", rng=20 + repeat
            )
            _, est_fd = rsfd.collect_and_estimate(skewed_dataset)
            _, est_rfd = rsrfd.collect_and_estimate(skewed_dataset)
            errors_fd.append(mse_avg(est_fd, skewed_dataset))
            errors_rfd.append(mse_avg(est_rfd, skewed_dataset))
        assert np.mean(errors_rfd) < np.mean(errors_fd)
