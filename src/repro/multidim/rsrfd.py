"""RS+RFD: Random Sampling Plus *Realistic* Fake Data (Sec. 5, the countermeasure).

RS+RFD is the paper's proposed improvement of RS+FD: non-sampled attributes
are filled with fake values drawn from (possibly noisy) *prior* distributions
instead of uniform randomness.  Realistic fake data makes the sampled
attribute much harder to single out (countering the attribute-inference
attack) and also lets the fake data contribute to the estimation, improving
utility.

Two variants are proposed:

* ``RS+RFD[GRR]`` — GRR randomizer; fake values are direct samples from the
  prior (probability tree of Fig. 7).  Estimator: Eq. (6).
* ``RS+RFD[UE-r]`` — SUE/OUE randomizer; fake values are prior-distributed
  one-hot vectors, perturbed by the same UE protocol (probability tree of
  Fig. 8).  Estimator: Eq. (7).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..core.composition import amplified_epsilon
from ..core.dataset import TabularDataset
from ..core.domain import Domain
from ..core.frequencies import FrequencyEstimate, validate_probability_vector
from ..core.rng import RngLike
from ..exceptions import EstimationError, InvalidParameterError
from ..protocols.grr import GRR
from ..protocols.streaming import PackedBits, validate_chunk_size
from .base import FakeDataCountsMixin, MultidimReports, MultidimSolution, sample_attributes
from .rsfd import _make_ue, _validate_ue_kind

RealisticVariant = Literal["grr", "ue-r"]


class RSRFD(FakeDataCountsMixin, MultidimSolution):
    """Random Sampling Plus Realistic Fake Data (Alg. 1 of the paper).

    Parameters
    ----------
    domain:
        Attributes to collect.
    epsilon:
        Per-user privacy budget (amplified internally as in RS+FD).
    priors:
        Per-attribute prior distributions ``f~`` transmitted by the server in
        advance (list of probability vectors, one per attribute).
    variant:
        ``"grr"`` or ``"ue-r"``.
    ue_kind:
        ``"SUE"`` or ``"OUE"`` when ``variant == "ue-r"``.
    rng:
        Seed or generator.
    packed:
        Store UE report columns bit-packed (8x smaller); ignored by the GRR
        variant.  See :class:`~repro.multidim.rsfd.RSFD`.
    chunk_size:
        Rows the UE randomizers and packed count kernels materialize at
        once (default ``DEFAULT_CHUNK_SIZE``).
    """

    name = "RS+RFD"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        priors: Sequence[np.ndarray],
        variant: RealisticVariant = "grr",
        ue_kind: str = "OUE",
        rng: RngLike = None,
        packed: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        variant = variant.lower()
        if variant not in ("grr", "ue-r"):
            raise InvalidParameterError(
                f"variant must be 'grr' or 'ue-r', got {variant!r}"
            )
        ue_kind = _validate_ue_kind(ue_kind)
        protocol = "GRR" if variant == "grr" else ue_kind
        super().__init__(domain, epsilon, protocol=protocol, rng=rng)
        self.variant = variant
        self.ue_kind = ue_kind
        self.packed = bool(packed)
        self.chunk_size = validate_chunk_size(chunk_size)
        self.amplified_epsilon = amplified_epsilon(self.epsilon, self.domain.d)
        self.priors = self._validate_priors(priors)

    def _validate_priors(self, priors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Validate and normalize the per-attribute prior distributions.

        Every prior must be a finite, non-negative, positive-mass vector of
        length ``k_j`` — the same guard applied where priors enter the UE
        fake-data generator (:meth:`UnaryEncoding.randomize_random_onehot`),
        so malformed priors fail loudly here rather than as NaN probabilities
        inside ``rng.choice``.
        """
        priors = list(priors)
        if len(priors) != self.domain.d:
            raise InvalidParameterError(
                f"expected {self.domain.d} priors, got {len(priors)}"
            )
        return [
            validate_probability_vector(
                prior, self.domain.size_of(j), context=f"prior for attribute {j}"
            )
            for j, prior in enumerate(priors)
        ]

    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """Paper-style protocol label, e.g. ``"RS+RFD[SUE-r]"``."""
        if self.variant == "grr":
            return "RS+RFD[GRR]"
        return f"RS+RFD[{self.ue_kind}-r]"

    def _randomizer(self, attribute: int):
        k = self.domain.size_of(attribute)
        if self.variant == "grr":
            return GRR(k, self.amplified_epsilon, rng=self._rng)
        return _make_ue(
            self.ue_kind,
            k,
            self.amplified_epsilon,
            rng=self._rng,
            packed=self.packed,
            chunk_size=self.chunk_size,
        )

    # ------------------------------------------------------------------ #
    # client side (Alg. 1)
    # ------------------------------------------------------------------ #
    def collect(
        self, dataset: TabularDataset, sampled: np.ndarray | None = None
    ) -> MultidimReports:
        self._check_dataset(dataset)
        n = dataset.n
        if sampled is None:
            sampled = sample_attributes(n, self.domain.d, self._rng)
        else:
            sampled = np.asarray(sampled, dtype=np.int64)
            if sampled.shape != (n,):
                raise EstimationError(f"sampled must have shape ({n},)")

        per_attribute = []
        for j in range(self.domain.d):
            k = self.domain.size_of(j)
            prior = self.priors[j]
            randomizer = self._randomizer(j)
            rows_true = np.flatnonzero(sampled == j)
            rows_fake = np.flatnonzero(sampled != j)
            if self.variant == "grr":
                column = np.empty(n, dtype=np.int64)
                if rows_true.size:
                    column[rows_true] = randomizer.randomize_many(
                        dataset.column(j)[rows_true]
                    )
                if rows_fake.size:
                    # fake data = direct sample from the prior (Fig. 7)
                    column[rows_fake] = self._rng.choice(k, size=rows_fake.size, p=prior)
            elif self.packed:
                column = PackedBits.empty(n, k)
                if rows_true.size:
                    column.data[rows_true] = randomizer.randomize_many(
                        dataset.column(j)[rows_true]
                    ).data
                if rows_fake.size:
                    # fake data = prior-distributed one-hot, UE-perturbed (Fig. 8)
                    column.data[rows_fake] = randomizer.randomize_random_onehot(
                        rows_fake.size, priors=prior
                    ).data
            else:
                column = np.zeros((n, k), dtype=np.uint8)
                if rows_true.size:
                    column[rows_true] = randomizer.randomize_many(
                        dataset.column(j)[rows_true]
                    )
                if rows_fake.size:
                    # fake data = prior-distributed one-hot, UE-perturbed (Fig. 8)
                    column[rows_fake] = randomizer.randomize_random_onehot(
                        rows_fake.size, priors=prior
                    )
            per_attribute.append(column)

        return MultidimReports(
            solution=self.name,
            protocol=self.protocol,
            epsilon=self.epsilon,
            domain=self.domain,
            n=n,
            per_attribute=per_attribute,
            sampled=sampled,
            extra={
                "variant": self.variant,
                "ue_kind": self.ue_kind,
                "label": self.label,
                "amplified_epsilon": self.amplified_epsilon,
            },
        )

    # ------------------------------------------------------------------ #
    # server side (Eqs. 6 and 7)
    # ------------------------------------------------------------------ #
    def estimate(self, reports: MultidimReports) -> list[FrequencyEstimate]:
        """Per-attribute unbiased estimates (Eqs. 6 and 7).

        ``reports.per_attribute[j]`` may be a dense array, a bit-packed
        :class:`~repro.protocols.streaming.PackedBits` matrix or an iterable
        of report chunks; all produce byte-identical estimates.
        """
        return self._estimates_from_counts(*self._counts_from_reports(reports))

    # -- streaming hooks (counting inherited from FakeDataCountsMixin) ------
    def _estimates_from_counts(self, counts_list, ns) -> list[FrequencyEstimate]:
        estimates = []
        d = self.domain.d
        for j in range(self.domain.d):
            k = self.domain.size_of(j)
            n = int(ns[j])
            if n <= 0:
                raise EstimationError("cannot estimate from zero reports")
            prior = self.priors[j]
            randomizer = self._randomizer(j)
            p, q = randomizer.p, randomizer.q
            counts = np.asarray(counts_list[j], dtype=float)
            if self.variant == "grr":
                # Eq. (6)
                values = (d * counts - n * (q + (d - 1) * prior)) / (n * (p - q))
            else:
                # Eq. (7)
                bias = q + (p - q) * (d - 1) * prior + q * (d - 1)
                values = (d * counts - n * bias) / (n * (p - q))
            estimates.append(
                FrequencyEstimate(
                    estimates=values,
                    attribute=self.domain[j].name,
                    n=n,
                    metadata={
                        "solution": self.name,
                        "protocol": self.label,
                        "epsilon": self.epsilon,
                        "amplified_epsilon": self.amplified_epsilon,
                        "k": k,
                    },
                )
            )
        return estimates
