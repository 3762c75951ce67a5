import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randhelm import NoiseSpec, build_uniform_mesh, sample_media


def test_same_key_reproduces_sample(mesh4):
    spec = NoiseSpec(seed=42)
    a = sample_media(mesh4, spec, 7)
    b = sample_media(mesh4, spec, 7)
    assert np.array_equal(a.eta_volume, b.eta_volume)
    assert np.array_equal(a.eta_boundary, b.eta_boundary)


def test_different_keys_differ(mesh4):
    spec = NoiseSpec(seed=42)
    a = sample_media(mesh4, spec, 0)
    b = sample_media(mesh4, spec, 1)
    c = sample_media(mesh4, NoiseSpec(seed=43), 0)
    for other in (b, c):
        assert not np.array_equal(a.eta_volume, other.eta_volume)
        assert not np.array_equal(a.eta_boundary, other.eta_boundary)


def test_order_independence(mesh4):
    spec = NoiseSpec(seed=3)
    first = sample_media(mesh4, spec, 5)
    for i in (9, 2, 0):
        sample_media(mesh4, spec, i)
    again = sample_media(mesh4, spec, 5)
    assert np.array_equal(again.eta_volume, first.eta_volume)
    assert np.array_equal(again.eta_boundary, first.eta_boundary)


def test_shapes_and_bounds(mesh4):
    spec = NoiseSpec(low=-0.5, high=2.0, seed=1)
    media = sample_media(mesh4, spec, 0)
    assert media.eta_volume.shape == mesh4.volume_weights.shape
    assert media.eta_boundary.shape == (
        mesh4.boundary_edges.size,
        mesh4.ref_edge_points.size,
    )
    for arr in (media.eta_volume, media.eta_boundary):
        assert arr.min() >= -0.5 and arr.max() <= 2.0


def test_degenerate_interval(mesh4):
    # A zero-width draw returns low bit for bit; only -0.0 comes back as +0.0.
    for low in (0.25, 0.0, -1.0, 0.3, 1e300, 5e-324, -0.0):
        media = sample_media(mesh4, NoiseSpec(low=low, high=low, seed=3), 1)
        for arr in (media.eta_volume, media.eta_boundary):
            assert arr.tobytes() == np.full(arr.shape, low + 0.0).tobytes()


def test_validation():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        NoiseSpec(low=1.0, high=0.0)
    for kwargs, field in [
        ({"low": -np.inf}, "low"),
        ({"high": np.inf}, "high"),
        ({"low": np.nan}, "low"),
        ({"low": -1e308, "high": 1e308}, "high - low"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "1"}, "seed"),
    ]:
        with pytest.raises(ValueError, match=f"noise {field}"):
            NoiseSpec(**kwargs)
    # numpy integers are seeds too, signed ones included.
    assert NoiseSpec(seed=np.int64(7)) == NoiseSpec(seed=7)
    a = sample_media(mesh, NoiseSpec(seed=np.int32(-1)), 2)
    b = sample_media(mesh, NoiseSpec(seed=-1), 2)
    assert np.array_equal(a.eta_volume, b.eta_volume)
    with pytest.raises(ValueError):
        sample_media(mesh, NoiseSpec(), -1)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**63),
    st.integers(min_value=0, max_value=1000),
)
def test_keyed_reproducibility_property(seed, index):
    mesh = build_uniform_mesh(2)
    spec = NoiseSpec(seed=seed)
    a = sample_media(mesh, spec, index)
    b = sample_media(mesh, spec, index)
    assert np.array_equal(a.eta_volume, b.eta_volume)
    assert a.eta_volume.min() >= -1.0 and a.eta_volume.max() <= 1.0
