"""Coverage precomputation: per-candidate masks, singles, and pairwise overlaps.

For a cloud with criticalities ``c_r`` and candidates with boolean
coverage rows ``m_i``, the weighted coverage of a point set is the sum of
its criticalities divided by the cloud total.  ``singles[i]`` is the
weighted coverage of candidate ``i`` alone and ``overlaps[i, j]`` the
weighted coverage of the pairwise intersection: ``(M * c) @ M.T /
normalizer`` for the 0/1 mask matrix ``M``, formed limb by limb (below).
It is symmetric positive-semidefinite with ``singles`` on its diagonal.

Building the matrix is embarrassingly parallel over candidates (each row
is independent) and the result is immutable, so a
:class:`CoverageData` can be shared read-only across workers.  A run
builds it in memory once per side, and every solver of that side reads
the same instance; nothing is stored between runs.  The whole-vehicle
report builds it once more for the selected sensors over the full
cloud, and once over the cloud's critical points for adherence.

Covered weights are exact.  Each criticality is split without error
into limbs on a common grid of ``b = 53 - bit_length(n)`` bits for ``n``
points (Ozaki, Ogita, Oishi & Rump 2012), so any sum of one limb's values
is exact, in any order and through BLAS too.  Every path (singles,
overlaps, greedy's gains, the screen, the union) adds a covered set's
limb sums with :func:`limb_total`, in one fixed order, and gets one
float: with two limbs, as on clouds whose weights span a few binary
orders, the correctly rounded sum.  The normalizer is the whole cloud's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, EmptyCloudError
from .geometry import RoiCloud, SensorConfig, SensorSpec, fov_mask


@dataclass(frozen=True)
class CoverageData:
    """Precomputed coverage of a candidate set against one cloud.

    ``masks`` is the (N, n) boolean candidate-by-point coverage matrix;
    ``limbs`` the (L, n) exact split of the per-point criticalities;
    ``normalizer`` the cloud total, by :func:`limb_total`.
    """

    masks: NDArray[np.bool_]
    singles: NDArray[np.float64]
    overlaps: NDArray[np.float64]
    limbs: NDArray[np.float64]
    normalizer: float
    configs: tuple[SensorConfig, ...]

    @property
    def num_configs(self) -> int:
        return self.masks.shape[0]

    @property
    def num_points(self) -> int:
        return self.masks.shape[1]


def build_coverage(
    cloud: RoiCloud,
    configs: list[SensorConfig] | tuple[SensorConfig, ...],
    catalog: tuple[SensorSpec, ...],
) -> CoverageData:
    """Compute masks, singles and pairwise overlaps for the given candidates.

    Each per-limb product is exact, so ``overlaps`` is symmetric and
    ``singles``, its diagonal, is each candidate's exact union coverage.
    A sensor type index outside the catalog raises :class:`ConfigError`.
    """
    if unknown := sorted({c.type_index for c in configs} - set(range(len(catalog)))):
        raise ConfigError(f"the catalog has no sensor type index {', '.join(map(str, unknown))}")
    if len(cloud) == 0:
        raise EmptyCloudError("cannot build coverage over an empty cloud")
    if not cloud.criticality.any():
        raise EmptyCloudError("cloud has zero total criticality")
    limbs = split_limbs(cloud.criticality)
    normalizer = float(limb_total(limbs.sum(axis=1)))

    n_cfg = len(configs)
    masks = np.zeros((n_cfg, len(cloud)), dtype=bool)
    for i, cfg in enumerate(configs):
        masks[i] = fov_mask(cfg, catalog[cfg.type_index], cloud.points)

    mask_f = masks.astype(float)
    # each per-limb product is exact, hence symmetric: .T puts the limb axis last
    overlaps = limb_total(np.array([(mask_f * limb) @ mask_f.T for limb in limbs]).T) / normalizer
    return CoverageData(
        masks=masks,
        singles=overlaps.diagonal().copy(),
        overlaps=overlaps,
        limbs=limbs,
        normalizer=normalizer,
        configs=tuple(configs),
    )


def split_limbs(weights: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rows adding up to finite weights in [0, 1], not all zero: row ``l``
    holds multiples of ``2**(e - (l + 1) * b)`` below ``2**(e - l * b)``."""
    bits = 53 - len(weights).bit_length()
    top = math.frexp(float(weights.max()))[1]
    limbs, rest = [], weights
    while rest.any():
        # every float is a multiple of the smallest subnormal: no finer unit is needed
        low = np.fmod(rest, max(math.ldexp(1.0, top - (len(limbs) + 1) * bits), math.ulp(0.0)))
        limbs.append(rest - low)
        rest = low
    return np.array(limbs)


def limb_total(sums):
    """Sum per-limb values along the last axis, smallest limb first: the
    one order every covered-weight path uses."""
    total = sums[..., -1]
    for l in range(sums.shape[-1] - 2, -1, -1):
        total = sums[..., l] + total
    return total


def union_mask(selection, data: CoverageData) -> NDArray[np.bool_]:
    """Boolean OR of the selected candidates' coverage rows."""
    return data.masks[list(selection)].any(axis=0)


def exact_union_coverage(selection, data: CoverageData) -> float:
    """Weighted coverage of the exact FoV union of a selection.

    This is the ground-truth coverage reported with every result; the
    quadratic singles-minus-overlaps expression only lower-bounds it.
    """
    mask = union_mask(selection, data)
    return float(limb_total(data.limbs[:, mask].sum(axis=1)) / data.normalizer)

