import numpy as np
import pytest

from randhelm import NoiseSpec, SourceSpec, sample_media, source_volume
from randhelm.sources import _radial


def test_constant_source(mesh4):
    spec = SourceSpec(kind="constant", value=2.5)
    S = source_volume(spec, mesh4, None, 0.0, 5.0)
    assert S.shape == mesh4.volume_weights.shape
    assert np.all(S == 2.5)


def test_radial_source_values(mesh4):
    spec = SourceSpec(kind="radial_wave")
    k = 50.0
    S = source_volume(spec, mesh4, None, 0.0, k)
    rho = np.hypot(mesh4.volume_points[..., 0], mesh4.volume_points[..., 1])
    assert np.allclose(S, np.sin(k * rho) / rho, atol=1e-12)
    assert np.all(np.isfinite(S))


def test_radial_source_origin_limit():
    k = 50.0
    # sin(k * rho) / rho -> k as rho -> 0.
    assert _radial(np.asarray(0.0), 1.0, k) == pytest.approx(k)
    assert _radial(np.asarray(1e-12), 1.0, k) == pytest.approx(k)


def test_radial_source_depends_on_medium(mesh4):
    spec = SourceSpec(kind="radial_wave")
    media = sample_media(mesh4, NoiseSpec(seed=1), 0)
    k, eps = 20.0, 0.5
    S = source_volume(spec, mesh4, media.eta_volume, eps, k)
    rho = np.hypot(mesh4.volume_points[..., 0], mesh4.volume_points[..., 1])
    alpha = 1.0 + eps * media.eta_volume
    assert np.allclose(S, np.sin(k * alpha * rho) / rho, atol=1e-12)
    # With epsilon = 0 the medium is ignored.
    S0 = source_volume(spec, mesh4, media.eta_volume, 0.0, k)
    assert np.allclose(S0, np.sin(k * rho) / rho, atol=1e-12)


def test_source_validation():
    with pytest.raises(ValueError):
        SourceSpec(kind="gaussian")
    with pytest.raises(ValueError):
        SourceSpec(kind="constant", value=float("inf"))
