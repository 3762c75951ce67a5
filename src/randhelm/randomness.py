"""Reproducible sampling of the random medium.

The fluctuation eta is an i.i.d. uniform draw at every volume and
boundary-edge quadrature point.  Streams are keyed by (seed, sample
index) through a counter-based generator, so a sample's values depend
only on its key and the mesh layout, never on execution order or thread
scheduling.  The multi-modes solver and the classical baseline draw from
the same keys, which gives common random numbers across both methods.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .mesh import TriMesh

__all__ = ["NoiseSpec", "MediaSample", "sample_media"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform distribution on [low, high] with a 64-bit seed.

    The bounds and their difference must be finite; the seed is an integer
    (numpy's included, bool not), kept as an int.
    """

    low: float = -1.0
    high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("low", "high"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"noise {name} {getattr(self, name)!r} is not finite")
        if not isfinite(self.high - self.low):
            raise ValueError(f"noise high - low = {self.high - self.low!r} is not finite")
        if not self.low <= self.high:
            raise ValueError("noise interval must satisfy low <= high")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"noise seed {self.seed!r} is not an integer")
        # `sample_media` masks the seed to 64 bits, which takes a Python int.
        object.__setattr__(self, "seed", int(self.seed))


@dataclass
class MediaSample:
    """One realization of eta on a mesh's quadrature layout."""

    eta_volume: np.ndarray    # (n_elements, nq)
    eta_boundary: np.ndarray  # (n_boundary_edges, nqe)


def sample_media(mesh: TriMesh, spec: NoiseSpec, index: int) -> MediaSample:
    """Draw the eta realization with the given sample index.

    The Philox counter-based generator is keyed by (seed, index), and the
    whole layout is drawn in one fixed pass, so regenerating any index in
    any order reproduces identical values.  With low == high every value
    is exactly low, except that low = -0.0 comes back as +0.0.
    """
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    key = np.array([spec.seed & _MASK64, index & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    nel, nq = mesh.volume_weights.shape
    nbe, nqe = mesh.boundary_edges.size, mesh.ref_edge_points.size
    vol = gen.uniform(spec.low, spec.high, size=(nel, nq))
    bnd = gen.uniform(spec.low, spec.high, size=(nbe, nqe))
    return MediaSample(vol, bnd)
