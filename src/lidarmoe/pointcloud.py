"""Point cloud container shared by the simulator, transforms, and pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PointCloud:
    """N points with coordinates, intensity, beam index, and class label.

    ``xyz`` is (N, 3) float32 in meters, ``intensity`` (N,) float32 in
    [0, 1], ``beam`` (N,) int32, ``label`` (N,) int32 with -1 meaning
    unlabeled. Treated as immutable; transforms return new instances.
    """

    xyz: np.ndarray
    intensity: np.ndarray
    beam: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xyz", np.ascontiguousarray(self.xyz, dtype=np.float32).reshape(-1, 3))
        object.__setattr__(self, "intensity", np.ascontiguousarray(self.intensity, dtype=np.float32).reshape(-1))
        object.__setattr__(self, "beam", np.ascontiguousarray(self.beam, dtype=np.int32).reshape(-1))
        object.__setattr__(self, "label", np.ascontiguousarray(self.label, dtype=np.int32).reshape(-1))
        n = self.xyz.shape[0]
        if not (self.intensity.shape[0] == self.beam.shape[0] == self.label.shape[0] == n):
            raise ValueError("point attribute lengths disagree")

    @property
    def count(self) -> int:
        return self.xyz.shape[0]

    def depth(self) -> np.ndarray:
        """Per-point distance to the sensor origin, float64."""
        return np.linalg.norm(self.xyz.astype(np.float64), axis=1)

    def features(self) -> np.ndarray:
        """Per-point (x, y, z, intensity) matrix, float32."""
        return np.concatenate([self.xyz, self.intensity[:, None]], axis=1)

    def replace_xyz(self, xyz) -> "PointCloud":
        return PointCloud(xyz, self.intensity, self.beam, self.label)

    def select(self, mask_or_idx) -> "PointCloud":
        return PointCloud(self.xyz[mask_or_idx], self.intensity[mask_or_idx],
                          self.beam[mask_or_idx], self.label[mask_or_idx])
