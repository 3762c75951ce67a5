"""Source terms for the forward problem.

Two kinds are supported: a constant source and the oscillatory radial
wave f = sin(k * alpha * rho) / rho with rho the distance from the
origin.  The radial source depends on the sampled medium through alpha,
so it is evaluated per realization at quadrature points, one sample or a
stacked batch of samples at a time.  Both sources are real.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .mesh import TriMesh

__all__ = ["SourceSpec", "source_volume"]

_RHO_GUARD = 1e-8


@dataclass(frozen=True)
class SourceSpec:
    kind: str = "constant"          # 'constant' or 'radial_wave'
    value: float = 1.0              # used by 'constant' only

    def __post_init__(self):
        if self.kind not in ("constant", "radial_wave"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "constant" and not isfinite(self.value):
            raise ValueError("constant source value must be finite")


def _radial(rho, alpha, k):
    z = k * alpha
    # Removable singularity at the origin: sin(k*alpha*rho)/rho -> k*alpha.
    return np.where(rho < _RHO_GUARD, z, np.sin(z * rho) / np.maximum(rho, _RHO_GUARD))


def source_volume(
    spec: SourceSpec, mesh: TriMesh, eta: np.ndarray | None, epsilon: float, k: float,
) -> np.ndarray:
    """Real source values at every volume quadrature point, shape (nel, nq).

    `eta` is one sample's `eta_volume`, (nel, nq), the eta of a batch
    stacked on leading axes, (..., nel, nq), which the result keeps, or
    None for the unperturbed medium.
    """
    shape = mesh.volume_weights.shape if eta is None else eta.shape
    if spec.kind == "constant":
        return np.full(shape, float(spec.value))
    rho = np.hypot(mesh.volume_points[..., 0], mesh.volume_points[..., 1])
    alpha = 1.0 if eta is None else 1.0 + epsilon * eta
    return _radial(rho, alpha, k)
