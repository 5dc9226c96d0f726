"""Sampling and train/test splitting (Section 7's protocol).

The paper's experiments: reserve a uniform 10% of each dataset as the
test set, then train on 1%-, 10%-, 50%-, and 90%- uniform samples of
the remainder, 5 trials each with fresh sampling.  These helpers make
that protocol explicit and deterministic under seeds.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, TypeVar

from repro.records import Record

T = TypeVar("T")

#: The training fractions swept in Tables 1, 2 and 5.
PAPER_TRAINING_FRACTIONS = (0.01, 0.10, 0.50, 0.90)

#: The paper's held-out test fraction.
PAPER_TEST_FRACTION = 0.10

#: The paper's trial count.
PAPER_TRIALS = 5


def uniform_sample(
    records: Sequence[T], fraction: float, seed: int = 0
) -> List[T]:
    """A uniform random sample of ``round(fraction * n)`` records.

    Exact-size sampling (not Bernoulli), deterministic under ``seed``,
    order-preserving.  Never returns fewer than one record for a
    positive fraction on non-empty input.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if not records or fraction == 0.0:
        return []
    count = int(round(fraction * len(records)))
    count = max(1, min(count, len(records)))
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(records)), count))
    return [records[i] for i in chosen]


class TrainTestSplit(Record):
    """A train/test partition of a record collection."""

    __slots__ = ("train", "test")

    def __init__(self, train: List, test: List) -> None:
        self._init(train, test)

    @property
    def train_size(self) -> int:
        return len(self.train)

    @property
    def test_size(self) -> int:
        return len(self.test)


def train_test_split(
    records: Sequence[T],
    test_fraction: float = PAPER_TEST_FRACTION,
    seed: int = 0,
) -> TrainTestSplit:
    """Reserve a uniform ``test_fraction`` of records for testing."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be within [0, 1)")
    indices = list(range(len(records)))
    rng = random.Random(seed)
    rng.shuffle(indices)
    test_count = int(round(test_fraction * len(records)))
    test_indices = set(indices[:test_count])
    train = [records[i] for i in range(len(records)) if i not in test_indices]
    test = [records[i] for i in sorted(test_indices)]
    return TrainTestSplit(train=train, test=test)


def trial_samples(
    train: Sequence[T],
    fraction: float,
    trials: int = PAPER_TRIALS,
    base_seed: int = 0,
) -> List[List[T]]:
    """``trials`` independent uniform samples of the training pool."""
    return [
        uniform_sample(train, fraction, seed=base_seed * 1000 + trial)
        for trial in range(trials)
    ]


def paper_protocol(
    records: Sequence[T],
    *,
    fraction: float,
    trial: int,
    seed: int = 0,
) -> Tuple[List[T], List[T]]:
    """One (train sample, test set) pair under the paper's protocol."""
    split = train_test_split(records, seed=seed)
    sample = uniform_sample(
        split.train, fraction, seed=seed * 1000 + trial
    )
    return sample, split.test
