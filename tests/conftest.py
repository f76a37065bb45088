import math

import numpy as np
import pytest

from cylocc.geom import FisheyeCamera, RigidTransform, surround_rig
from cylocc.grid import default_cylindrical_spec
from cylocc.synth import Box, HalfSpace, Scene, Sphere, VerticalCylinder


@pytest.fixture(scope="session")
def cyl_spec():
    return default_cylindrical_spec()


@pytest.fixture(scope="session")
def rig6():
    return surround_rig()


@pytest.fixture(scope="session")
def street_scene():
    """Ground plus a few small labeled obstacles at 8-11 m.

    Flat z-surfaces sit strictly inside z bins of the default cylindrical
    grid AND away from the n=3 stratified sample heights (bin base +
    {1/15, 1/5, 1/3} m), so analytic voting is float-robust; obstacles are
    small and mid-range so surface-straddling voxels stay rare.
    """
    return Scene(
        (
            Box((9.0, -0.75, -1.3), (10.5, 0.75, 0.3), 7),  # vehicles
            VerticalCylinder((-6.0, 8.0), 0.25, -1.3, 2.3, 9),  # pole
            Sphere((0.0, -10.0, 0.1), 0.7, 6),  # vegetation
            HalfSpace(-1.3, 1),  # road
        )
    )


def bin_triple(spec, p) -> tuple[int, int, int]:
    """Index triple of one Cartesian point, unravelled from point_to_flat; (-1, -1, -1) outside."""
    flat = int(spec.point_to_flat([p])[0])
    return (-1, -1, -1) if flat < 0 else tuple(int(i) for i in np.unravel_index(flat, spec.dims))


def random_rotation(rng):
    m = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_transform(rng, scale=5.0):
    return RigidTransform(random_rotation(rng), rng.uniform(-scale, scale, 3))


@pytest.fixture
def single_cam():
    return FisheyeCamera(
        width=1280,
        height=1280,
        focal=400.0,
        principal_point=(640.0, 640.0),
        fov=math.pi,
        name="mono",
    )


def sparse_features(spec, rng, frac, channels, negative_zero=True):
    """Random rows on about frac of the voxels, and one more row holding only -0.0."""
    data = np.zeros(spec.dims + (channels,), dtype=np.float32)
    hit = rng.rand(*spec.dims) < frac
    data[hit] = rng.rand(int(hit.sum()), channels)
    empty = np.flatnonzero(~hit.reshape(-1))
    if negative_zero:
        data.reshape(-1, channels)[empty[len(empty) // 2]] = -0.0
    return data
