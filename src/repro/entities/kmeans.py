"""k-means clustering of key-sets — the baseline of Section 7.3.

The paper compares Bimax-Merge against classical k-means over binary
key-membership vectors with Euclidean distance, *giving k-means the
ground-truth k* (information Bimax never needs).  Even so, k-means
splits attribute-rich entities into several clusters while starving
small ones, because every field is weighted equally (Example 9).

Implementation: k-means++ initialisation and Lloyd iterations over a
dense ``numpy`` matrix, fully deterministic under a seed.  The binary
matrix is materialised through the bitset layer
(:class:`~repro.entities.keyset.KeySetUniverse`): each key-set encodes
to one integer mask whose bits are scattered into a row, and the
universe's ``repr``-sorted key order *is* the vocabulary — identical
to the historical ``sorted(set().union(*key_sets), key=repr)``.

``weights`` (optional, aligned with the key-sets) are record
multiplicities from a counted bag: the k-means++ seeding distribution,
the Lloyd centroid means, and the inertia all weight by them, so a
deduplicated bag clusters exactly like the duplicated corpus would.
Unweighted calls are bit-for-bit the seed behaviour.

numpy is imported inside the three functions that use it, so importing
this module (as :mod:`repro.entities` and the JXPLAIN discoverer do)
loads no numpy: only a run of the k-means baseline pays its import
time and memory, which were half of a ``discover`` process's start-up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Tuple

from repro.entities.keyset import KeySetUniverse, iter_bits
from repro.records import Record

if TYPE_CHECKING:
    import numpy as np

KeySet = FrozenSet[str]


class KMeansResult(Record):
    """Labels plus the fitted centroids and key vocabulary."""

    __slots__ = ("labels", "centroids", "vocabulary", "inertia")

    def __init__(
        self,
        labels: np.ndarray,
        centroids: np.ndarray,
        vocabulary: Tuple[str, ...],
        inertia: float,
    ) -> None:
        self._init(labels, centroids, vocabulary, inertia)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def cluster_key_sets(self, threshold: float = 0.5) -> List[KeySet]:
        """The key-set each centroid implies (membership >= threshold)."""
        out: List[KeySet] = []
        for row in self.centroids:
            keys = {
                self.vocabulary[i]
                for i in range(len(self.vocabulary))
                if row[i] >= threshold
            }
            out.append(frozenset(keys))
        return out


def encode_key_sets(
    key_sets: Sequence[KeySet],
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Binary membership matrix over the union vocabulary.

    Vocabulary order sorts by ``repr`` so heterogeneous feature keys
    (strings, path tuples) order deterministically.
    """
    import numpy as np

    if not key_sets:
        return np.zeros((0, 0), dtype=np.float64), ()
    universe = KeySetUniverse.from_key_sets(key_sets)
    vocabulary = universe.keys
    matrix = np.zeros((len(key_sets), len(vocabulary)), dtype=np.float64)
    for row, key_set in enumerate(key_sets):
        for bit in iter_bits(universe.encode(key_set)):
            matrix[row, bit] = 1.0
    return matrix, vocabulary


def _kmeans_pp_init(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance.

    With ``weights``, both the first pick and every subsequent pick
    draw proportionally to record multiplicity (times squared
    distance), matching seeding over the duplicated corpus.
    """
    import numpy as np

    count = matrix.shape[0]
    if weights is None:
        first = int(rng.integers(count))
    else:
        first = int(rng.choice(count, p=weights / weights.sum()))
    centroids = [matrix[first]]
    distances = np.sum((matrix - centroids[0]) ** 2, axis=1)
    for _ in range(1, k):
        scores = distances if weights is None else distances * weights
        total = scores.sum()
        if total <= 0:
            choice = int(rng.integers(count))
        else:
            choice = int(rng.choice(count, p=scores / total))
        centroids.append(matrix[choice])
        new_d = np.sum((matrix - centroids[-1]) ** 2, axis=1)
        distances = np.minimum(distances, new_d)
    return np.array(centroids)


def kmeans_key_sets(
    key_sets: Sequence[KeySet],
    k: int,
    *,
    seed: int = 0,
    max_iterations: int = 100,
    weights: Optional[Sequence[int]] = None,
) -> KMeansResult:
    """Cluster key-sets into ``k`` groups with Lloyd's algorithm."""
    import numpy as np

    if k <= 0:
        raise ValueError("k must be positive")
    if not key_sets:
        raise ValueError("cannot cluster an empty input")
    if k > len(key_sets):
        raise ValueError(
            f"k={k} exceeds the number of key-sets ({len(key_sets)})"
        )
    if weights is not None and len(weights) != len(key_sets):
        raise ValueError("weights must align with key_sets")
    matrix, vocabulary = encode_key_sets(key_sets)
    weight_array = (
        np.asarray(weights, dtype=np.float64) if weights is not None else None
    )
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(matrix, k, rng, weights=weight_array)
    labels = np.zeros(matrix.shape[0], dtype=np.int64)
    for _ in range(max_iterations):
        # Assignment step.
        distances = (
            np.sum(matrix**2, axis=1, keepdims=True)
            - 2.0 * matrix @ centroids.T
            + np.sum(centroids**2, axis=1)
        )
        new_labels = np.argmin(distances, axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        # Update step; empty clusters re-seed from the farthest point.
        for cluster in range(k):
            mask = labels == cluster
            if mask.any():
                if weight_array is None:
                    centroids[cluster] = matrix[mask].mean(axis=0)
                else:
                    centroids[cluster] = np.average(
                        matrix[mask], axis=0, weights=weight_array[mask]
                    )
            else:
                farthest = int(np.argmax(distances.min(axis=1)))
                centroids[cluster] = matrix[farthest]
    final_d = (
        np.sum(matrix**2, axis=1, keepdims=True)
        - 2.0 * matrix @ centroids.T
        + np.sum(centroids**2, axis=1)
    )
    point_d = final_d[np.arange(matrix.shape[0]), labels]
    if weight_array is not None:
        point_d = point_d * weight_array
    inertia = float(point_d.sum())
    return KMeansResult(
        labels=labels,
        centroids=centroids,
        vocabulary=vocabulary,
        inertia=inertia,
    )


def kmeans_clusters(
    key_sets: Sequence[KeySet],
    k: int,
    *,
    seed: int = 0,
    weights: Optional[Sequence[int]] = None,
) -> List[List[KeySet]]:
    """Group the input key-sets by their k-means label."""
    result = kmeans_key_sets(key_sets, k, seed=seed, weights=weights)
    clusters: List[List[KeySet]] = [[] for _ in range(k)]
    for key_set, label in zip(key_sets, result.labels):
        clusters[int(label)].append(key_set)
    return clusters
