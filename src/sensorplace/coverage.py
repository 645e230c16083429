"""Coverage precomputation: per-candidate masks, singles, and pairwise overlaps.

For a cloud with criticalities ``c_r`` and candidates with boolean
coverage rows ``m_i``, the weighted coverage of a point set is the sum of
its criticalities divided by the cloud total.  ``singles[i]`` is the
weighted coverage of candidate ``i`` alone and ``overlaps[i, j]`` the
weighted coverage of the pairwise intersection, so ``overlaps`` equals
``(M * c) @ M.T / normalizer`` for the 0/1 mask matrix ``M``; it is
symmetric positive-semidefinite with ``singles`` on its diagonal.

Building the matrix is embarrassingly parallel over candidates (each row
is independent) and the result is immutable, so a
:class:`CoverageData` can be shared read-only across workers.  A run
builds it in memory once per side, and every solver of that side reads
the same instance; nothing is stored between runs.  The whole-vehicle
report builds it once more for the selected sensors over the full
cloud, and once over the cloud's critical points for adherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, EmptyCloudError
from .geometry import RoiCloud, SensorConfig, SensorSpec, fov_mask


@dataclass(frozen=True)
class CoverageData:
    """Precomputed coverage of a candidate set against one cloud.

    ``masks`` is the (N, n) boolean candidate-by-point coverage matrix;
    ``weights`` the per-point criticalities; ``normalizer`` the
    criticality total used for weighting (the cloud's own total for a
    side sub-problem, the full-RoI total when re-weighting aggregates).
    """

    masks: NDArray[np.bool_]
    singles: NDArray[np.float64]
    overlaps: NDArray[np.float64]
    weights: NDArray[np.float64]
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

    The diagonal of ``overlaps`` is copied into ``singles`` so the
    ``singles[i] == overlaps[i, i]`` identity holds exactly.  A sensor
    type index outside the catalog raises :class:`ConfigError`.
    """
    if unknown := sorted({c.type_index for c in configs} - set(range(len(catalog)))):
        raise ConfigError(f"the catalog has no sensor type index {', '.join(map(str, unknown))}")
    if len(cloud) == 0:
        raise EmptyCloudError("cannot build coverage over an empty cloud")
    normalizer = cloud.total_criticality
    if normalizer <= 0.0:
        raise EmptyCloudError("cloud has zero total criticality")

    n_cfg = len(configs)
    masks = np.zeros((n_cfg, len(cloud)), dtype=bool)
    for i, cfg in enumerate(configs):
        masks[i] = fov_mask(cfg, catalog[cfg.type_index], cloud.points)

    mask_f = masks.astype(float)
    weighted = mask_f * cloud.criticality
    overlaps = weighted @ mask_f.T / normalizer
    overlaps = np.triu(overlaps) + np.triu(overlaps, 1).T  # exactly symmetric
    singles = overlaps.diagonal().copy()
    return CoverageData(
        masks=masks,
        singles=singles,
        overlaps=overlaps,
        weights=cloud.criticality.copy(),
        normalizer=normalizer,
        configs=tuple(configs),
    )


def union_mask(selection, data: CoverageData) -> NDArray[np.bool_]:
    """Boolean OR of the selected candidates' coverage rows."""
    return data.masks[list(selection)].any(axis=0)


def exact_union_coverage(selection, data: CoverageData) -> float:
    """Weighted coverage of the exact FoV union of a selection.

    This is the ground-truth coverage reported with every result; the
    quadratic singles-minus-overlaps expression only lower-bounds it.
    """
    mask = union_mask(selection, data)
    return float(data.weights[mask].sum() / data.normalizer)

