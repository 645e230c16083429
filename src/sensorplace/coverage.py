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
:class:`CoverageData` can be shared read-only across workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyCloudError
from .geometry import RoiCloud, SensorConfig, SensorSpec, fov_mask

COVERAGE_CACHE_VERSION = 1


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
    ``singles[i] == overlaps[i, i]`` identity holds exactly.
    """
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
    idx = list(selection)
    if not idx:
        return np.zeros(data.num_points, dtype=bool)
    return data.masks[idx].any(axis=0)


def exact_union_coverage(selection, data: CoverageData) -> float:
    """Weighted coverage of the exact FoV union of a selection.

    This is the ground-truth coverage reported with every result; the
    quadratic singles-minus-overlaps expression only lower-bounds it.
    """
    mask = union_mask(selection, data)
    return float(data.weights[mask].sum() / data.normalizer)


# ---------------------------------------------------------------------------
# Optional binary cache


def coverage_cache_key(
    cloud: RoiCloud,
    configs: list[SensorConfig] | tuple[SensorConfig, ...],
    catalog: tuple[SensorSpec, ...],
) -> str:
    """Content hash identifying a (cloud, candidates, catalog) combination."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cloud.points).tobytes())
    h.update(np.ascontiguousarray(cloud.criticality).tobytes())
    for cfg in configs:
        h.update(repr((cfg.type_index, cfg.position, cfg.orientation, cfg.side.value)).encode())
    for spec in catalog:
        h.update(repr((spec.name, spec.alpha_h, spec.alpha_v, spec.range, spec.cost)).encode())
    h.update(str(COVERAGE_CACHE_VERSION).encode())
    return h.hexdigest()


def save_coverage(data: CoverageData, path) -> None:
    configs_json = json.dumps([c.to_dict() for c in data.configs])
    np.savez_compressed(
        path,
        version=COVERAGE_CACHE_VERSION,
        masks=data.masks,
        singles=data.singles,
        overlaps=data.overlaps,
        weights=data.weights,
        normalizer=data.normalizer,
        configs=configs_json,
    )


def load_coverage(path) -> CoverageData:
    with np.load(path, allow_pickle=False) as z:
        if int(z["version"]) != COVERAGE_CACHE_VERSION:
            raise ValueError(f"unsupported coverage cache version {int(z['version'])}")
        configs = tuple(SensorConfig.from_dict(c) for c in json.loads(str(z["configs"])))
        return CoverageData(
            masks=z["masks"].astype(bool),
            singles=z["singles"],
            overlaps=z["overlaps"],
            weights=z["weights"],
            normalizer=float(z["normalizer"]),
            configs=configs,
        )


def cached_coverage(
    cloud: RoiCloud,
    configs,
    catalog,
    cache_dir,
) -> CoverageData:
    """Build coverage, or load it from ``cache_dir`` when already computed."""
    from pathlib import Path

    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = coverage_cache_key(cloud, configs, catalog)
    path = cache_dir / f"coverage_{key}.npz"
    if path.exists():
        return load_coverage(path)
    data = build_coverage(cloud, configs, catalog)
    save_coverage(data, path)
    return data
