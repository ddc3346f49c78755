"""RS+FD: Random Sampling Plus Fake Data (Arcolezi et al., CIKM 2021).

Each user samples one attribute, sanitizes it with the amplified budget
``epsilon' = ln(d (e^eps - 1) + 1)`` and *hides* it by also transmitting one
uniformly random fake value for every non-sampled attribute, so the
aggregator cannot tell which attribute carries the LDP report.

Three variants are studied by the paper, differing in the local randomizer
and the fake-data generation procedure:

* ``RS+FD[GRR]`` — GRR randomizer, fake values drawn uniformly from the
  attribute's domain;
* ``RS+FD[UE-z]`` — UE randomizer (SUE or OUE), fake reports obtained by
  perturbing the all-zero vector;
* ``RS+FD[UE-r]`` — UE randomizer, fake reports obtained by perturbing a
  uniformly random one-hot vector.

The unbiased estimators of Sec. 2.3.2 are implemented in :meth:`RSFD.estimate`.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from ..core.composition import amplified_epsilon
from ..core.dataset import TabularDataset
from ..core.domain import Domain
from ..core.frequencies import FrequencyEstimate
from ..core.rng import RngLike
from ..exceptions import EstimationError, InvalidParameterError
from ..protocols.grr import GRR
from ..protocols.streaming import PackedBits, validate_chunk_size
from ..protocols.ue import OUE, SUE, UnaryEncoding
from .base import FakeDataCountsMixin, MultidimReports, MultidimSolution, sample_attributes

FakeDataVariant = Literal["grr", "ue-z", "ue-r"]
UEKind = Literal["SUE", "OUE"]


_UE_CLASSES: dict[str, type[UnaryEncoding]] = {"SUE": SUE, "OUE": OUE}


def _validate_ue_kind(kind: str) -> str:
    """Upper-cased ``kind``; raises unless it names SUE or OUE."""
    kind = str(kind).upper()
    if kind not in _UE_CLASSES:
        raise InvalidParameterError(f"ue_kind must be 'SUE' or 'OUE', got {kind!r}")
    return kind


def _make_ue(
    kind: str,
    k: int,
    epsilon: float,
    rng,
    packed: bool = False,
    chunk_size: int | None = None,
) -> UnaryEncoding:
    """UE randomizer of a ``kind`` already checked by :func:`_validate_ue_kind`."""
    return _UE_CLASSES[kind](k, epsilon, rng=rng, packed=packed, chunk_size=chunk_size)


class RSFD(FakeDataCountsMixin, MultidimSolution):
    """Random Sampling Plus Fake Data solution.

    Parameters
    ----------
    domain:
        Attributes to collect.
    epsilon:
        Per-user privacy budget (amplification to ``epsilon'`` is handled
        internally).
    variant:
        Fake-data variant: ``"grr"``, ``"ue-z"`` or ``"ue-r"``.
    ue_kind:
        ``"SUE"`` or ``"OUE"``; only used by the UE variants.
    packed:
        Store UE report columns bit-packed
        (:class:`~repro.protocols.streaming.PackedBits`, k/8 bytes per user
        instead of k).  Estimation is byte-identical; ignored by the GRR
        variant whose integer codes are already compact.
    chunk_size:
        Rows the UE randomizers and packed count kernels materialize at
        once (default ``DEFAULT_CHUNK_SIZE``).
    rng:
        Seed or generator.
    """

    name = "RS+FD"

    def __init__(
        self,
        domain: Domain,
        epsilon: float,
        variant: FakeDataVariant = "grr",
        ue_kind: UEKind = "OUE",
        rng: RngLike = None,
        packed: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        variant = variant.lower()
        if variant not in ("grr", "ue-z", "ue-r"):
            raise InvalidParameterError(
                f"variant must be 'grr', 'ue-z' or 'ue-r', got {variant!r}"
            )
        ue_kind = _validate_ue_kind(ue_kind)
        protocol = "GRR" if variant == "grr" else ue_kind
        super().__init__(domain, epsilon, protocol=protocol, rng=rng)
        self.variant = variant
        self.ue_kind = ue_kind
        self.packed = bool(packed)
        self.chunk_size = validate_chunk_size(chunk_size)
        self.amplified_epsilon = amplified_epsilon(self.epsilon, self.domain.d)

    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """Paper-style protocol label, e.g. ``"RS+FD[OUE-z]"``."""
        if self.variant == "grr":
            return "RS+FD[GRR]"
        suffix = "z" if self.variant == "ue-z" else "r"
        return f"RS+FD[{self.ue_kind}-{suffix}]"

    def _randomizer(self, attribute: int):
        """Local randomizer for ``attribute`` at the amplified budget."""
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
    # client side
    # ------------------------------------------------------------------ #
    def collect(
        self, dataset: TabularDataset, sampled: np.ndarray | None = None
    ) -> MultidimReports:
        """Produce one full tuple (LDP value + fake values) per user."""
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
            randomizer = self._randomizer(j)
            rows_true = np.flatnonzero(sampled == j)
            rows_fake = np.flatnonzero(sampled != j)
            if self.variant == "grr":
                column = np.empty(n, dtype=np.int64)
                if rows_true.size:
                    column[rows_true] = randomizer.randomize_many(
                        dataset.column(j)[rows_true]
                    )
                column[rows_fake] = self._rng.integers(0, k, size=rows_fake.size)
            elif self.packed:
                column = PackedBits.empty(n, k)
                if rows_true.size:
                    column.data[rows_true] = randomizer.randomize_many(
                        dataset.column(j)[rows_true]
                    ).data
                if rows_fake.size:
                    column.data[rows_fake] = self._generate_fake_ue(
                        randomizer, rows_fake.size
                    ).data
            else:
                column = np.zeros((n, k), dtype=np.uint8)
                if rows_true.size:
                    column[rows_true] = randomizer.randomize_many(
                        dataset.column(j)[rows_true]
                    )
                if rows_fake.size:
                    column[rows_fake] = self._generate_fake_ue(randomizer, rows_fake.size)
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

    def _generate_fake_ue(self, randomizer: UnaryEncoding, count: int) -> np.ndarray:
        if self.variant == "ue-z":
            return randomizer.randomize_zero_vector(count)
        return randomizer.randomize_random_onehot(count)

    # ------------------------------------------------------------------ #
    # server side
    # ------------------------------------------------------------------ #
    def estimate(self, reports: MultidimReports) -> list[FrequencyEstimate]:
        """Per-attribute unbiased estimates (Sec. 2.3.2).

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
            randomizer = self._randomizer(j)
            p, q = randomizer.p, randomizer.q
            counts = np.asarray(counts_list[j], dtype=float)
            if self.variant == "grr":
                # RS+FD[GRR] estimator (Sec. 2.3.2)
                values = (counts * d * k - n * (d - 1 + q * k)) / (n * k * (p - q))
            elif self.variant == "ue-z":
                # RS+FD[UE-z] estimator
                values = d * (counts - n * q) / (n * (p - q))
            else:
                # RS+FD[UE-r] estimator
                bias = q * k + (p - q) * (d - 1) + q * k * (d - 1)
                values = (counts * d * k - n * bias) / (n * k * (p - q))
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
