"""Analytic scene oracle tests. Expected intersection values come from the
closed-form root formulas evaluated by hand (quadratics with rational
solutions)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc import synth
from cylocc.errors import DomainError
from cylocc.geom import RigidTransform, erp_depth_to_point_cloud, rot_z, surround_rig
from cylocc.formats import decode_voxel_grid, encode_voxel_grid
from cylocc.grid import CUBOID, CYLINDRICAL, GridSpec, default_cylindrical_spec, default_label_set, voxelize_semantic
from cylocc.metrics import cast_rays, generate_rays
from cylocc.synth import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    VerticalCylinder,
    analytic_voxel_gt,
    render_erp_depth,
    sample_scene_point_cloud,
)

from conftest import bin_triple, random_rotation
from oracles import (
    DEMO07_SCENE,
    REPRESENTATION_SCENE,
    all_centers,
    analytic_voxel_gt_all_probes,
    cell_probes,
    erp_direction_grid,
    fan_point_cloud,
    lidar_ring_origins,
    render_erp_depth_all_pixels,
    scene_first_hit,
    scene_to_json,
    zero_grid,
)

# the cuboid lattice cylocc synth derives from the default cylindrical one
CLI_CUBOID_SPEC = GridSpec(CUBOID, (160, 160, 16), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6)))


def scene_named(name, street_scene):
    return {"street": street_scene, "demo07": DEMO07_SCENE, "representation": REPRESENTATION_SCENE}[name]


def online_frames_poses(seed: int = 0) -> list[RigidTransform]:
    """The two ego poses the online_frames benchmark renders demo-07 from
    (bench/workloads.py OnlineFrames.setup and ego_step)."""
    rng = np.random.default_rng([seed, 1])
    start = RigidTransform(rot_z(rng.uniform(-0.15, 0.15)),
                           np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), 0.0]))
    yaw = rng.uniform(-0.05, 0.05)
    step = RigidTransform(rot_z(yaw), np.array([rng.uniform(0.3, 0.8), rng.uniform(-0.05, 0.05), 0.0]))
    return [start, start.compose(step)]


def pitch_roll_pose() -> RigidTransform:
    """A raised eye pitched down 0.3 rad and rolled 0.2 rad, then yawed."""
    c, s = math.cos(0.3), math.sin(0.3)
    pitch = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    c, s = math.cos(0.2), math.sin(0.2)
    roll = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return RigidTransform(rot_z(2.5) @ pitch @ roll, np.array([1.0, -0.5, 1.5]))


def erp_grid(width: int, height: int) -> tuple:
    """_pixel_rects grid arguments of a width x height ERP raster."""
    return width, height, 0.5 * math.pi, -math.pi / height


def cloud_grid() -> tuple:
    """_pixel_rects grid arguments of the cloud sampler's fan."""
    az, el, (lo, hi) = synth._CLOUD_FAN
    return az, el, lo, (hi - lo) / el


coords = st.floats(-1.5, 1.5)


@st.composite
def scenes(draw, anchors, half_spaces=st.integers(0, 1), heights=st.floats(-2.5, 2.5)):
    """1-4 labeled primitives near the given (x, y, z) anchors, sized up to
    well past a small lattice's edges, with as many half-spaces as
    half_spaces draws, each at a height from heights and anywhere in their
    order."""
    prims = []
    for _ in range(draw(st.integers(1, 4))):
        ax, ay, az = draw(st.sampled_from(anchors))
        x, y, z = ax + draw(coords), ay + draw(coords), az + draw(coords)
        a, b, h = (draw(st.floats(0.05, 4.0)) for _ in range(3))
        label = draw(st.integers(1, 11))
        kind = draw(st.sampled_from(["box", "sphere", "cylinder"]))
        if kind == "box":
            prims.append(Box((x - a, y - b, z - h), (x + a, y + b, z + h), label))
        elif kind == "sphere":
            prims.append(Sphere((x, y, z), a, label))
        else:
            prims.append(VerticalCylinder((x, y), a, z - h, z + h, label))
    for _ in range(draw(half_spaces)):
        prims.insert(draw(st.integers(0, len(prims))), HalfSpace(draw(heights), draw(st.integers(1, 11))))
    return Scene(tuple(prims))


def layer_heights(spec: GridSpec, supersample: int):
    """Heights on spec's layer edges, at its exact probe heights for the
    given supersample, and anywhere from a layer below to a layer above it."""
    lo, hi = spec.ranges[2]
    return st.one_of(
        st.integers(0, spec.dims[2]).map(lambda k: float(spec.axis_value(k, 2))),
        st.tuples(st.integers(0, spec.dims[2] - 1), st.integers(0, supersample - 1)).map(
            lambda ko: float(spec.axis_value(ko[0] + (ko[1] + 0.5) / supersample, 2))),
        st.floats(lo - spec.deltas[2], hi + spec.deltas[2]),
    )


# the r = 0 axis and overhead, the theta = +-pi seam, the r edge, a far corner, the high z edge
LATTICE_ANCHORS = [(0.0, 0.0, 0.0), (-4.0, 0.0, 0.0), (8.0, 0.0, -1.0), (-6.0, -6.0, 0.0), (2.0, 3.0, 3.0)]
SMALL_CYLINDRICAL = GridSpec(CYLINDRICAL, (8, 12, 5), ((0.0, 8.0), (-math.pi, math.pi), (-2.0, 3.0)))
SMALL_CUBOID = GridSpec(CUBOID, (8, 8, 5), ((-8.0, 8.0), (-8.0, 8.0), (-2.0, 3.0)))
R_MIN_CYLINDRICAL = GridSpec(CYLINDRICAL, (6, 10, 5), ((2.0, 8.0), (-math.pi, math.pi), (-2.0, 3.0)))
# the default lattice as an OVOX file stores it: every range rounded to f32, theta's just past +-pi
OVOX_SPEC = decode_voxel_grid(encode_voxel_grid(zero_grid(default_cylindrical_spec(), "label"))).spec
# primitives 1e308 m out, whose bounds' bin fractions overflow to +-inf on some axis; the
# last one's gaps to every column centre overflow hypot too
FAR_PRIMITIVES = [Box((-1.1e308, -1.0, -1.0), (-1e308, 1.0, 1.0), 12), Sphere((0.0, 1e308, 0.0), 1.0, 12),
                  VerticalCylinder((1e308, -1e308), 1e150, -1.0, 1.0, 12), Box((1.3e308,) * 3, (1.4e308,) * 3, 12)]


class TestRaySceneIntersect:
    def test_parallel_above_ground_misses(self):
        scene = Scene((HalfSpace(0.0, 1),))
        t, label, hit = scene_first_hit(scene, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert not hit[0]
        assert t[0] == np.inf and label[0] == 0

    def test_straight_down_onto_ground(self):
        scene = Scene((HalfSpace(0.0, 1),))
        t, label, hit = scene_first_hit(scene, [[0.0, 0.0, 2.0]], [[0.0, 0.0, -1.0]], 100.0)
        assert hit[0] and label[0] == 1
        assert t[0] == pytest.approx(2.0, abs=1e-12)

    def test_unit_sphere_head_on(self):
        # quadratic root: |o - c| = 5 along the axis, radius 1 -> t = 4
        scene = Scene((Sphere((5.0, 0.0, 0.0), 1.0, 6),))
        t, label, hit = scene_first_hit(scene, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert t[0] == pytest.approx(4.0, abs=1e-12)
        assert label[0] == 6

    def test_box_entry_face(self):
        scene = Scene((Box((2.0, -1.0, -1.0), (4.0, 1.0, 1.0), 4),))
        t, _, _ = scene_first_hit(scene, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert t[0] == pytest.approx(2.0, abs=1e-12)

    def test_origin_inside_box_hits_exit(self):
        scene = Scene((Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 4),))
        t, _, _ = scene_first_hit(scene, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert t[0] == pytest.approx(1.0, abs=1e-12)

    def test_cylinder_side_and_cap(self):
        cyl = VerticalCylinder((5.0, 0.0), 1.0, -1.0, 1.0, 9)
        scene = Scene((cyl,))
        # one batch: a side hit and a cap hit
        t, _, hit = scene_first_hit(scene, [[0.0, 0.0, 0.0], [5.0, 0.0, 3.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                                    100.0)
        assert hit.all()
        np.testing.assert_allclose(t, [4.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("tiny", [5e-324, 2.2250738585e-313, 1e-300, 1e-200])
    def test_nearly_axis_parallel_rays(self, tiny):
        # dividing by a tiny direction component overflows to +-inf: the slab
        # is then parallel and the plane is out of range, and no warning escapes
        o = np.zeros((4, 3))
        d = [[1.0, tiny, tiny], [1.0, -tiny, -tiny], [-1.0, tiny, -tiny], [1.0, 0.0, tiny]]
        for prim in (Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 4), VerticalCylinder((0.0, 0.0), 1.0, -1.0, 1.0, 9)):
            t, _, hit = scene_first_hit(Scene((prim,)), o, d, 100.0)
            assert hit.all()
            np.testing.assert_array_equal(t, 1.0)
        _, _, hit = scene_first_hit(Scene((HalfSpace(-1.0, 1),)), o, d, 100.0)
        assert not hit.any()

    def test_order_breaks_ties(self):
        a = Sphere((5.0, 0.0, 0.0), 1.0, 3)
        b = Sphere((5.0, 0.0, 0.0), 1.0, 7)
        o, d = [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]
        assert scene_first_hit(Scene((a, b)), o, d, 100.0)[1][0] == 3
        assert scene_first_hit(Scene((b, a)), o, d, 100.0)[1][0] == 7

    def test_nearest_primitive_wins(self):
        far = Sphere((9.0, 0.0, 0.0), 1.0, 3)
        near = Sphere((5.0, 0.0, 0.0), 1.0, 7)
        _, label, _ = scene_first_hit(Scene((far, near)), [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert label[0] == 7


class TestRenderErp:
    def test_empty_scene_all_zero(self):
        depth, sem = render_erp_depth(Scene(()), 16, 8)
        assert not depth.data.any()
        assert not sem.data.any()

    def test_center_pixel_sphere_depth(self):
        # odd W, H: pixel (2, 1) of a 5x3 raster looks exactly along +x
        scene = Scene((Sphere((5.0, 0.0, 0.0), 1.0, 6),))
        depth, sem = render_erp_depth(scene, 5, 3)
        assert depth.data[1, 2] == pytest.approx(4.0, abs=1e-6)
        assert sem.data[1, 2] == 6

    def test_pose_moves_the_eye(self):
        scene = Scene((Sphere((5.0, 0.0, 0.0), 1.0, 6),))
        pose = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        depth, _ = render_erp_depth(scene, 5, 3, pose=pose)
        assert depth.data[1, 2] == pytest.approx(3.0, abs=1e-6)

    def test_yaw_rotates_the_view(self):
        scene = Scene((Sphere((0.0, 5.0, 0.0), 1.0, 6),))
        pose = RigidTransform(rot_z(math.pi / 2), np.zeros(3))
        depth, _ = render_erp_depth(scene, 5, 3, pose=pose)
        assert depth.data[1, 2] == pytest.approx(4.0, abs=1e-6)

    def test_lifted_points_lie_on_surfaces(self, street_scene):
        depth, sem = render_erp_depth(street_scene, 400, 200)
        cloud = erp_depth_to_point_cloud(depth, sem)
        # signed distance to the nearest primitive surface, evaluated per
        # primitive family in closed form
        best = np.full(len(cloud), np.inf)
        for prim in street_scene.primitives:
            if isinstance(prim, HalfSpace):
                d = np.abs(cloud.points[:, 2] - prim.height)
            elif isinstance(prim, Sphere):
                d = np.abs(np.linalg.norm(cloud.points - np.asarray(prim.center), axis=1) - prim.radius)
            elif isinstance(prim, VerticalCylinder):
                radial = np.abs(
                    np.hypot(cloud.points[:, 0] - prim.center[0], cloud.points[:, 1] - prim.center[1])
                    - prim.radius
                )
                axial = np.maximum(prim.z_min - cloud.points[:, 2], cloud.points[:, 2] - prim.z_max)
                d = np.where(axial <= 0, radial, np.hypot(radial, np.maximum(axial, 0)))
                d = np.minimum(d, np.abs(axial))
            elif isinstance(prim, Box):
                lo, hi = np.asarray(prim.min_corner), np.asarray(prim.max_corner)
                face = np.minimum(np.abs(cloud.points - lo), np.abs(cloud.points - hi)).min(axis=1)
                d = face
            best = np.minimum(best, d)
        assert np.max(best) < 1e-4


class TestAnalyticVoxelGt:
    def test_empty_scene_all_free(self, cyl_spec):
        gt = analytic_voxel_gt(Scene(()), cyl_spec, 2)
        assert not gt.data.any()

    def test_ground_slab_fills_exactly_one_layer(self, cyl_spec):
        slab = Box((-26.0, -26.0, 0.0), (26.0, 26.0, 0.4), 1)
        gt = analytic_voxel_gt(Scene((slab,)), cyl_spec, 3)
        assert np.all(gt.data[:, :, 7] == 1)
        layer_mask = np.zeros(16, dtype=bool)
        layer_mask[7] = True
        assert not gt.data[:, :, ~layer_mask].any()

    def test_supersample_convergence(self, cyl_spec, street_scene):
        g1 = analytic_voxel_gt(street_scene, cyl_spec, 1)
        g3 = analytic_voxel_gt(street_scene, cyl_spec, 3)
        agree = (g1.data == g3.data).mean()
        assert agree >= 0.95

    @pytest.mark.parametrize("supersample", [0, 17, 10**20, 1.5, 2.0, True])
    def test_supersample_out_of_range_rejected(self, supersample):
        spec = GridSpec(CYLINDRICAL, (2, 4, 2), ((0.0, 25.6), (-math.pi, math.pi), (-2.8, 3.6)))
        with pytest.raises(DomainError):
            analytic_voxel_gt(Scene((HalfSpace(-1.3, 1),)), spec, supersample)

    def test_supersample_bound_accepted(self):
        # 16^3 = 4,096 probe passes, the most a voxel may take
        spec = GridSpec(CYLINDRICAL, (2, 4, 2), ((0.0, 25.6), (-math.pi, math.pi), (-2.8, 3.6)))
        scene = Scene((HalfSpace(0.0, 1),))
        gt = analytic_voxel_gt(scene, spec, 16)
        np.testing.assert_array_equal(gt.data, analytic_voxel_gt_all_probes(scene, spec, 16).data)
        assert gt.data[:, :, 0].all() and not gt.data[:, :, 1].any()

    def test_overlap_goes_to_earlier_primitive(self, cyl_spec):
        inner = Sphere((5.0, 0.0, 0.0), 1.0, 3)
        outer = Sphere((5.0, 0.0, 0.0), 1.5, 7)
        a = analytic_voxel_gt(Scene((inner, outer)), cyl_spec, 2)
        assert a.data[bin_triple(cyl_spec, [5.0, 0.0, 0.0])] == 3


class TestPassByPassVote:
    """analytic_voxel_gt votes each layer once among the half-spaces alone
    and gives that label to the whole layer; only the cells whose box
    touches a bounded primitive's bounds take the supersample^3 vote of the
    whole scene, counted pass by pass. The oracle probes every voxel at
    every offset and votes once. The two agree bit for bit."""

    @pytest.mark.parametrize("which", ["street", "demo07", "representation"])
    def test_default_lattice(self, cyl_spec, street_scene, which):
        scene = scene_named(which, street_scene)
        got = analytic_voxel_gt(scene, cyl_spec, 3)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, cyl_spec, 3).data)

    def test_cli_cuboid_lattice(self):
        scene = REPRESENTATION_SCENE
        got = analytic_voxel_gt(scene, CLI_CUBOID_SPEC, 3)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, CLI_CUBOID_SPEC, 3).data)

    def test_more_votes_than_uint8_holds(self, street_scene):
        # 7^3 = 343 probes per voxel; the z bin the ground cuts takes 294 road votes
        spec = GridSpec(CYLINDRICAL, (24, 32, 8), ((0.0, 12.0), (-math.pi, math.pi), (-2.8, 3.6)))
        got = analytic_voxel_gt(street_scene, spec, 7)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(street_scene, spec, 7).data)

    @pytest.mark.parametrize("supersample", [1, 2, 7, 16])
    @pytest.mark.parametrize("which", ["street", "demo07"])
    def test_supersample(self, street_scene, which, supersample):
        scene = scene_named(which, street_scene)
        spec = GridSpec(CYLINDRICAL, (12, 16, 6), ((0.0, 12.0), (-math.pi, math.pi), (-2.8, 3.6)))
        got = analytic_voxel_gt(scene, spec, supersample)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, spec, supersample).data)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), spec=st.sampled_from([SMALL_CYLINDRICAL, SMALL_CUBOID]), supersample=st.integers(1, 4))
    def test_drawn_scenes(self, data, spec, supersample):
        scene = data.draw(scenes(LATTICE_ANCHORS, st.integers(0, 3), layer_heights(spec, supersample)))
        got = analytic_voxel_gt(scene, spec, supersample)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, spec, supersample).data)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), spec=st.sampled_from([SMALL_CYLINDRICAL, SMALL_CUBOID, R_MIN_CYLINDRICAL]),
           supersample=st.integers(1, 4))
    def test_drawn_primitives_flag_every_cell_they_hold_a_probe_of(self, data, spec, supersample):
        # across theta = +-pi, across the z axis, and at r_min = 2 m of the r_min > 0 lattice,
        # with primitives 1e308 m out anywhere in the order; numpy warnings are errors
        anchors = [(-4.0, 0.0, 0.0), (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, -2.0, 1.0), (-1.4, 1.4, -2.0)]
        prims = list(data.draw(scenes(anchors, st.integers(0, 1), layer_heights(spec, supersample))).primitives)
        for far in data.draw(st.lists(st.sampled_from(FAR_PRIMITIVES), max_size=2)):
            prims.insert(data.draw(st.integers(0, len(prims))), far)
        scene = Scene(tuple(prims))
        probes = np.stack(list(cell_probes(spec, supersample)))  # (offsets, cells, 3)
        for prim in scene.primitives:
            if not isinstance(prim, HalfSpace):
                held = np.flatnonzero(prim.contains(probes.reshape(-1, 3)).reshape(probes.shape[:2]).any(axis=0))
                assert np.isin(held, synth._boundary_cells(Scene((prim,)), spec)).all()
        got = analytic_voxel_gt(scene, spec, supersample)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, spec, supersample).data)

    @pytest.mark.parametrize("supersample", [1, 2, 3, 4])
    @pytest.mark.parametrize("frac", [0.0, 0.2, 0.25, 0.5, 0.6, 0.75, 0.9])
    def test_half_space_plane_in_a_layer(self, frac, supersample):
        # z = frac cuts the small lattice's layer [0, 1) there; an even supersample can split its
        # probes evenly, and then the tie goes to free while the center may lie below the plane
        scene = Scene((HalfSpace(frac, 1), Sphere((2.0, 0.0, 0.5), 1.0, 6)))
        spec = SMALL_CYLINDRICAL
        got = analytic_voxel_gt(scene, spec, supersample)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, spec, supersample).data)

    @pytest.mark.parametrize("supersample", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", [SMALL_CYLINDRICAL, SMALL_CUBOID], ids=["cylindrical", "cuboid"])
    def test_layer_votes_among_half_spaces_alone(self, spec, supersample):
        # the sphere covers cell (0, 0, 2), flat index 2, whose layer z in [0, 1) both planes
        # cut; a layer vote that counted the sphere would spread its label over the whole layer
        scene = Scene((Sphere(tuple(all_centers(spec)[2]), 2.0, 6), HalfSpace(0.3, 1), HalfSpace(0.7, 2)))
        got = analytic_voxel_gt(scene, spec, supersample)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, spec, supersample).data)
        assert got.data[0, 0, 2] == 6 and got.data[-1, -1, 2] != 6

    @pytest.mark.parametrize("spec,layers", [(SMALL_CYLINDRICAL, {1, 2, 3}), (SMALL_CUBOID, {1, 2, 3}),
                                             (default_cylindrical_spec(), {6, 7, 8, 9})],
                             ids=["cylindrical", "cuboid", "default"])
    def test_box_huge_along_x_and_y_flags_only_its_layers(self, spec, layers):
        # x and y take their margin from x and y, z from z: the box flags every column, but only in the
        # layers of z in [0, 1] grown by 2e-6 m, and z = 0 is a layer edge of each lattice
        scene = Scene((Box((-1e308, -1e308, 0.0), (1e308, 1e308, 1.0), 7), HalfSpace(-1.3, 1)))
        flagged = synth._boundary_cells(scene, spec)
        assert set(np.unravel_index(flagged, spec.dims)[2]) == layers
        assert len(flagged) == len(layers) * spec.dims[0] * spec.dims[1]
        got = analytic_voxel_gt(scene, spec, 3)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, spec, 3).data)

    def test_flags_only_the_boundary(self, cyl_spec, street_scene):
        # about 6% of the default lattice holds a surface of the street scene
        assert len(synth._boundary_cells(street_scene, cyl_spec)) < 0.08 * cyl_spec.num_voxels

    def test_flags_only_cells_near_bounded_primitives(self, cyl_spec, street_scene):
        # the street's three obstacles touch 0.15-0.42% of the lattice; the ground flags nothing
        assert len(synth._boundary_cells(street_scene, cyl_spec)) < 0.01 * cyl_spec.num_voxels
        ground = Scene((HalfSpace(-1.3, 1), HalfSpace(0.0, 2)))
        assert len(synth._boundary_cells(ground, cyl_spec)) == 0


class TestCulledRender:
    """render_erp_depth renders in row blocks and intersects each bounded
    primitive only with the pixels of its (lambda, phi) rectangle; the oracle
    intersects every pixel with every primitive at once. The two agree bit
    for bit."""

    @staticmethod
    def assert_matches_oracle(scene, width, height, pose=None):
        depth, sem = render_erp_depth(scene, width, height, pose)
        want_depth, want_sem = render_erp_depth_all_pixels(scene, width, height, pose)
        np.testing.assert_array_equal(depth.data, want_depth.data)
        np.testing.assert_array_equal(sem.data, want_sem.data)

    def test_default_raster(self, street_scene):
        self.assert_matches_oracle(street_scene, 2000, 1000)

    @pytest.mark.parametrize("which", ["street", "demo07", "representation"])
    def test_scenes(self, street_scene, which):
        self.assert_matches_oracle(scene_named(which, street_scene), 1000, 500)

    @pytest.mark.parametrize("k", [0, 1])
    def test_online_frames_poses(self, k):
        self.assert_matches_oracle(DEMO07_SCENE, 1000, 500, online_frames_poses()[k])

    def test_pitch_and_roll(self):
        self.assert_matches_oracle(DEMO07_SCENE, 1000, 500, pitch_roll_pose())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), size=st.sampled_from([(1, 1), (2, 3), (7, 5), (64, 32), (97, 41)]),
           block=st.integers(1, 500))
    def test_drawn_scenes(self, data, size, block):
        eye = np.array([data.draw(coords), data.draw(coords), data.draw(st.floats(-1.0, 2.0))])
        rotation = data.draw(st.sampled_from(["identity", "yaw", "any"]))
        if rotation == "identity":
            pose = RigidTransform(np.eye(3), eye)
        elif rotation == "yaw":
            pose = RigidTransform(rot_z(data.draw(st.floats(-math.pi, math.pi))), eye)
        else:
            pose = RigidTransform(random_rotation(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))), eye)
        # the eye itself, straight above it, and across the lambda = +-pi seam behind it
        scene = data.draw(scenes([tuple(eye), tuple(eye + (0.0, 0.0, 3.0)), tuple(eye - pose.rotation[:, 0] * 4.0)]))
        # a pixel budget of `block` gives row blocks down to one row
        with mock.patch.object(synth, "_RENDER_BLOCK_PIXELS", block):
            self.assert_matches_oracle(scene, *size, pose)

    @pytest.mark.parametrize("size", [(2000, 1000), (1000, 500), (97, 41), (1, 7)])
    def test_row_block_directions(self, size):
        width, height = size
        grid = erp_direction_grid(width, height)
        rows = max(1, synth._RENDER_BLOCK_PIXELS // width)
        for b0 in range(0, height, rows):
            b1 = min(b0 + rows, height)
            np.testing.assert_array_equal(synth._erp_rows(width, height, b0, b1), grid[b0:b1])

    def test_small_primitive_gets_few_pixels(self):
        # a 1 m sphere 5 m away spans about 0.4 rad: a few percent of the sphere of view
        rects = synth._pixel_rects(Sphere((5.0, 0.0, 0.0), 1.0, 6), RigidTransform.identity(), *erp_grid(2000, 1000))
        assert sum((v1 - v0) * (u1 - u0) for v0, v1, u0, u1 in rects) < 0.02 * 2000 * 1000

    @pytest.mark.parametrize("prim", [Sphere((0.3, -0.2, 0.1), 1.0, 6), Box((-0.1, -0.1, -0.1), (0.1, 0.1, 5.0), 4),
                                      VerticalCylinder((0.0, 0.0), 0.5, 0.0, 2.0, 9)],
                             ids=["sphere", "box", "cylinder-base-at-eye"])
    def test_bounds_around_the_eye_get_every_pixel(self, prim):
        assert synth._pixel_rects(prim, RigidTransform.identity(), *erp_grid(64, 32)) == [(0, 32, 0, 64)]

    def test_seam_splits_the_rectangle(self):
        rects = synth._pixel_rects(Sphere((-5.0, 0.0, 0.0), 1.0, 6), RigidTransform.identity(), *erp_grid(2000, 1000))
        # the bounds' near corners (-4, +-1) lie atan(1 / 4) = 0.245 rad either side of
        # lambda = pi: 78 pixel columns at each raster edge, and 2 more of margin
        assert sorted((u0, u1) for _, _, u0, u1 in rects) == [(0, 80), (1920, 2000)]

    def test_primitive_above_the_fan_gets_no_rows(self):
        # the cloud fan's rows climb from -1.2 to 0.4 rad; a 1 m sphere 10 m out
        # and 10 m up lies above atan2(10 - 1, 10 + 1) = 0.686 rad
        rects = synth._pixel_rects(Sphere((10.0, 0.0, 10.0), 1.0, 6), RigidTransform.identity(), *cloud_grid())
        assert rects and all(v1 <= v0 for v0, v1, _, _ in rects)

    @pytest.mark.parametrize("size", [(100_000, 100_000), (synth._MAX_PIXELS + 1, 1)])
    def test_oversized_raster_rejected(self, size):
        with pytest.raises(DomainError, match="pixel cap"):
            render_erp_depth(Scene((HalfSpace(0.0, 1),)), *size)


class TestConservativeBounds:
    """Every point a primitive contains lies in its bounds(), and bounds
    around a probe of a cell flag that cell: the culling never drops a point
    that could change a label or a hit."""

    unit = st.floats(-1.01, 1.01)
    points = st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=32)
    centers = st.tuples(*[st.floats(-1e4, 1e4)] * 3)
    sizes = st.floats(1e-3, 1e3)

    @staticmethod
    def assert_contained_inside(prim, center, extent, fractions):
        pts = np.asarray(center) + np.asarray(fractions) * np.asarray(extent)
        lo, hi = prim.bounds()
        inside = pts[prim.contains(pts)]
        assert np.all((inside >= lo) & (inside <= hi))

    @settings(max_examples=200, deadline=None)
    @given(center=centers, a=sizes, b=sizes, h=sizes, fractions=points)
    def test_box(self, center, a, b, h, fractions):
        x, y, z = center
        box = Box((x - a, y - b, z - h), (x + a, y + b, z + h), 4)
        self.assert_contained_inside(box, center, (a, b, h), fractions)

    @settings(max_examples=200, deadline=None)
    @given(center=centers, r=sizes, fractions=points)
    def test_sphere(self, center, r, fractions):
        self.assert_contained_inside(Sphere(center, r, 6), center, (r, r, r), fractions)

    @settings(max_examples=200, deadline=None)
    @given(center=centers, r=sizes, h=sizes, fractions=points)
    def test_cylinder(self, center, r, h, fractions):
        x, y, z = center
        cyl = VerticalCylinder((x, y), r, z - h, z + h, 9)
        self.assert_contained_inside(cyl, center, (r, r, h), fractions)

    @pytest.mark.parametrize("spec", [
        GridSpec(CYLINDRICAL, (4, 1, 2), ((0.0, 5.0), (-math.pi, math.pi), (-1.0, 1.0))),
        GridSpec(CYLINDRICAL, (4, 2, 2), ((0.0, 5.0), (-math.pi, math.pi), (-1.0, 1.0))),
        GridSpec(CYLINDRICAL, (4, 3, 2), ((0.0, 5.0), (-math.pi, math.pi), (-1.0, 1.0))),
        GridSpec(CYLINDRICAL, (128, 200, 16), ((0.0, 25.6), (-math.pi, math.pi), (-2.8, 3.6))),
        GridSpec(CYLINDRICAL, (3, 2000, 2), ((1e5, 1e5 + 3.0), (-math.pi, math.pi), (-1e5, 1e5))),
        CLI_CUBOID_SPEC,
        OVOX_SPEC,
    ], ids=["cyl-1-sector", "cyl-2-sectors", "cyl-3-sectors", "cyl-default", "cyl-large-r", "cuboid", "cyl-ovox"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_cell_probes_flag_their_cell(self, spec, data, n):
        # r0 = 0 cells are the first radial index of every spec but the large-r one
        i = [data.draw(st.integers(0, d - 1)) for d in spec.dims]
        offsets = np.asarray(data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=4)))
        native = np.stack([spec.axis_value(i[k] + (offsets[:, k] + 0.5) / n, k) for k in range(3)], axis=1)
        cell = np.ravel_multi_index(i, spec.dims)
        # with no margin at all, a Box one ulp around a probe still flags the probe's cell: the
        # probe lies within its column's reach of its centre (cylindrical) or in its cell's bins (cuboid)
        with mock.patch.object(synth, "_BOUNDS_MARGIN", 0.0):
            for p in spec.to_cartesian(native):
                box = Box(tuple(np.nextafter(p, -np.inf)), tuple(np.nextafter(p, np.inf)), 4)
                assert cell in synth._boundary_cells(Scene((box,)), spec)


class TestNonFinitePrimitives:
    @pytest.mark.parametrize("build", [
        lambda: HalfSpace(math.nan, 1),
        lambda: HalfSpace(-math.inf, 1),
        lambda: Box((0.0, 0.0, math.nan), (1.0, 1.0, 1.0), 7),
        lambda: Box((0.0, 0.0, 0.0), (1.0, math.inf, 1.0), 7),
        lambda: Sphere((0.0, math.nan, 0.0), 1.0, 6),
        lambda: Sphere((0.0, 0.0, 0.0), math.nan, 6),
        lambda: VerticalCylinder((0.0, 0.0), math.nan, -1.0, 1.0, 9),
        lambda: VerticalCylinder((math.inf, 0.0), 0.3, -1.0, 1.0, 9),
        lambda: VerticalCylinder((0.0, 0.0), 0.3, -1.0, math.inf, 9),
    ], ids=["half-space-nan", "half-space-inf", "box-min-nan", "box-max-inf", "sphere-center-nan", "sphere-radius-nan",
            "cylinder-radius-nan", "cylinder-center-inf", "cylinder-z-max-inf"])
    def test_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize("build", [
        lambda r: Sphere((0.0, 0.0, 0.0), r, 6),
        lambda r: VerticalCylinder((0.0, 0.0), r, -1.0, 1.0, 9),
    ], ids=["sphere", "cylinder"])
    def test_radius_whose_square_overflows_rejected(self, build):
        build(math.nextafter(2.0**512, 0.0))
        for r in (2.0**512, 1e160, 1e300):
            with pytest.raises(DomainError, match="2\\*\\*512"):
                build(r)


class TestSceneLabels:
    """A primitive's label lies in 1..254: 0 is free and 255 (UNLABELED) marks cloud points without a class."""

    @pytest.mark.parametrize("label", [1, 254])
    def test_accepted(self, label):
        scene = Scene((Sphere((2.0, 0.0, 0.5), 1.0, label), HalfSpace(-1.5, label)))
        assert analytic_voxel_gt(scene, SMALL_CUBOID, 1).data.max() == label
        assert render_erp_depth(scene, 16, 8)[1].data.max() == label

    @pytest.mark.parametrize("label", [0, -1, 255, 299])
    def test_rejected(self, label):
        with pytest.raises(DomainError, match="semantic"):
            Scene((HalfSpace(0.0, 1), Sphere((2.0, 0.0, 0.5), 1.0, label)))


class TestFarPrimitives:
    """Origins and centers so far out that the quadratics' squares overflow:
    Sphere and VerticalCylinder report a miss (inf), and numpy warns of
    nothing (warnings are errors under pytest)."""

    FAR = [s * v for v in (1e160, 1e200, 1e300) for s in (1.0, -1.0)]
    DIRECTIONS = np.concatenate([generate_rays(16, 8, (-1.5, 1.5)).directions, np.eye(3), -np.eye(3)])

    @staticmethod
    def primitives(c):
        return [Sphere(c, 1.0, 6), VerticalCylinder(c[:2], 1.0, c[2] - 1.0, c[2] + 1.0, 9)]

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("far", FAR)
    def test_far_origin(self, axis, far):
        o = np.zeros((len(self.DIRECTIONS), 3))
        o[:, axis] = far
        for prim in self.primitives((0.0, 0.0, 0.0)):
            np.testing.assert_array_equal(prim.ray_first(o, self.DIRECTIONS), np.inf)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("far", FAR)
    def test_far_center(self, axis, far):
        c = [0.0, 0.0, 0.0]
        c[axis] = far
        for prim in self.primitives(tuple(c)):
            np.testing.assert_array_equal(prim.ray_first(np.zeros((len(self.DIRECTIONS), 3)), self.DIRECTIONS), np.inf)
            assert not prim.contains(np.zeros((1, 3)))[0]

    @pytest.mark.parametrize("spec", [default_cylindrical_spec(), CLI_CUBOID_SPEC], ids=["cylindrical", "cuboid"])
    def test_far_bounds_flag_no_cell(self, spec):
        # an int(floor(...)) of the overflowed bin fractions would warn and then raise OverflowError
        ground = Scene((HalfSpace(-1.3, 1),))
        for prim in FAR_PRIMITIVES:
            scene = Scene((prim, *ground.primitives))
            assert len(synth._boundary_cells(scene, spec)) == 0
            np.testing.assert_array_equal(analytic_voxel_gt(scene, spec, 2).data, analytic_voxel_gt(ground, spec, 2).data)


class TestWiderThanFloatRange:
    """A box wider than the float range along x and y: its pixel rectangle
    halves each bound before taking their difference, which would overflow."""

    SCENE = Scene((Box((-1e308, -1e308, 0.0), (1e308, 1e308, 1.0), 4), HalfSpace(-1.3, 1)))

    @pytest.mark.parametrize("pose", [None, online_frames_poses()[1]], ids=["identity", "online-frames-1"])
    def test_render_matches_all_pixels(self, pose):
        TestCulledRender.assert_matches_oracle(self.SCENE, 64, 32, pose)
        assert set(np.unique(render_erp_depth(self.SCENE, 64, 32, pose)[1].data)) == {1.0, 4.0}

    def test_cli_synth_exits_zero(self, tmp_path):
        from cylocc.cli import main

        scene_file = tmp_path / "wide.json"
        scene_file.write_text(scene_to_json(self.SCENE))
        out = tmp_path / "out"
        args = ["synth", "--scene", str(scene_file), "--erp", "64x32", "--spec", "cylindrical:8x16x16:0:25.6:-2.8:3.6"]
        assert main([*args, "--out", str(out)]) == 0
        gt = decode_voxel_grid((out / "gt_cylindrical.ovox").read_bytes())
        assert np.all(gt.data[:, :, 7:9] == 4)  # the layers of z in [0, 0.8] lie inside the box everywhere


class TestCulledCloud:
    """sample_scene_point_cloud casts each origin's fan through the culled
    row-block kernel; fan_point_cloud meets every ray with every primitive.
    The two agree bit for bit, points and labels, in the same order."""

    @staticmethod
    def assert_matches_oracle(scene, origins):
        got = sample_scene_point_cloud(scene, origins)
        want = fan_point_cloud(scene, origins, *synth._CLOUD_FAN)
        assert got.points.dtype == want.points.dtype and got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
        assert got.labels.dtype == want.labels.dtype and got.labels.tobytes() == want.labels.tobytes()

    @pytest.mark.parametrize("which", ["street", "demo07", "representation"])
    @pytest.mark.parametrize("origins", ["rig", "lidar"])
    def test_scenes(self, street_scene, which, origins):
        pts = (np.stack([cam.pose.translation for cam in surround_rig()]) if origins == "rig"
               else lidar_ring_origins(count=4, heights=(0.6, 1.8)))
        self.assert_matches_oracle(scene_named(which, street_scene), pts)

    @pytest.mark.parametrize("origin", [(9.5, 0.0, 0.0), (0.0, -10.0, 0.3), (9.75, 0.0, 3.0), (13.0, 0.2, 0.5)],
                             ids=["inside-box", "inside-sphere", "above-box", "box-behind-across-seam"])
    def test_special_origins(self, street_scene, origin):
        self.assert_matches_oracle(street_scene, np.array([origin]))

    @pytest.mark.parametrize("scene", [
        Scene((Sphere((5.0, 0.0, 0.0), 1.0, 3), Sphere((5.0, 0.0, 0.0), 1.0, 7))),
        Scene((Sphere((5.0, 0.0, 0.0), 1.0, 7), Sphere((5.0, 0.0, 0.0), 1.0, 3))),
        Scene((Box((2.0, -1.0, -1.0), (4.0, 1.0, 1.0), 4), Box((2.0, -3.0, -1.0), (4.0, 3.0, 1.0), 7))),
        Scene((HalfSpace(-1.0, 1), HalfSpace(-1.0, 2))),
        Scene(()),
    ], ids=["sphere-tie", "sphere-tie-reversed", "box-face-tie", "plane-tie", "empty"])
    def test_ties_and_empty(self, scene):
        self.assert_matches_oracle(scene, np.array([[0.0, 0.0, 0.0], [-3.0, 0.5, 0.2]]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), block=st.integers(1, 40_000))
    def test_drawn_scenes(self, data, block):
        eye = np.array([data.draw(coords), data.draw(coords), data.draw(st.floats(-1.0, 2.0))])
        # the eye itself, straight above it, and across the lambda = +-pi seam behind it
        scene = data.draw(scenes([tuple(eye), tuple(eye + (0.0, 0.0, 3.0)), tuple(eye - (4.0, 0.0, 0.0))]))
        origins = np.array([eye, *data.draw(st.lists(st.tuples(coords, coords, coords), max_size=2))])
        # a pixel budget below the fan's 512 x 64 spreads it over several row blocks
        with mock.patch.object(synth, "_RENDER_BLOCK_PIXELS", block):
            self.assert_matches_oracle(scene, origins)


class TestSampledCloud:
    def test_empty_scene_empty_cloud(self):
        cloud = sample_scene_point_cloud(Scene(()), np.zeros((1, 3)))
        assert len(cloud) == 0

    def test_downward_fan_on_ground_all_road(self):
        scene = Scene((HalfSpace(0.0, 1),))
        cloud = sample_scene_point_cloud(scene, np.array([[0.0, 0.0, 2.0]]))
        # elevation bin centers step 0.025 rad up from -1.1875; the 47 below
        # -asin(2 / 60) = -0.0333 rad reach the ground within 60 m
        assert len(cloud) == 512 * 47
        assert np.all(cloud.labels == 1)
        np.testing.assert_allclose(cloud.points[:, 2], 0.0, atol=1e-9)

    def test_deterministic_bit_identical(self, street_scene):
        origins = lidar_ring_origins(count=4, heights=(1.0, 2.0))
        a = sample_scene_point_cloud(street_scene, origins)
        b = sample_scene_point_cloud(street_scene, origins)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_voxelized_sample_matches_analytic_gt(self, cyl_spec, street_scene):
        cloud = fan_point_cloud(street_scene, lidar_ring_origins(count=8, heights=(0.6, 1.6)), 1024, 128, (-1.2, 0.25))
        grid = voxelize_semantic(cloud, cyl_spec, default_label_set())
        gt = analytic_voxel_gt(street_scene, cyl_spec, 3)
        flat = cyl_spec.point_to_flat(cloud.points)
        counts = np.bincount(flat[flat >= 0], minlength=cyl_spec.num_voxels).reshape(cyl_spec.dims)
        touched = counts >= 10
        assert touched.sum() > 10000
        agree = (grid.data[touched] == gt.data[touched]).mean()
        assert agree >= 0.99


class TestOracleConsistency:
    def surface_distance(self, scene, pts):
        best = np.full(len(pts), np.inf)
        for prim in scene.primitives:
            if isinstance(prim, HalfSpace):
                d = np.abs(pts[:, 2] - prim.height)
            elif isinstance(prim, Sphere):
                d = np.abs(np.linalg.norm(pts - np.asarray(prim.center), axis=1) - prim.radius)
            elif isinstance(prim, VerticalCylinder):
                radial = np.abs(
                    np.hypot(pts[:, 0] - prim.center[0], pts[:, 1] - prim.center[1]) - prim.radius
                )
                d = np.maximum(radial, np.maximum(prim.z_min - pts[:, 2], pts[:, 2] - prim.z_max))
                d = np.abs(d)
            else:
                lo, hi = np.asarray(prim.min_corner), np.asarray(prim.max_corner)
                d = np.minimum(np.abs(pts - lo), np.abs(pts - hi)).min(axis=1)
            best = np.minimum(best, d)
        return best

    def test_gt_cast_agrees_with_scene_intersect(self, cyl_spec, street_scene):
        gt = analytic_voxel_gt(street_scene, cyl_spec, 3)
        rays = generate_rays(256, 16, (-0.45, 0.1), origin=(0.0, 0.0, 0.3))
        grid_hits = cast_rays(rays, gt)
        t, label, hit = scene_first_hit(street_scene, rays.origins, rays.directions, 40.0)
        # restrict to rays the scene resolves inside the grid's radius
        in_grid = hit & (t < 24.0)
        same = grid_hits.label[in_grid] == label[in_grid]
        assert same.mean() >= 0.98
        # the voxelized hit must land within one voxel diagonal of the true
        # surface; the along-ray gap is unbounded for grazing rays (depth
        # into the cell divided by the sine of incidence), so the bound is
        # asserted on the hit point's distance to the primitive boundary
        diag = math.sqrt(0.2**2 + (25.6 * 2 * math.pi / 200) ** 2 + 0.4**2)
        agreeing = in_grid & (grid_hits.label == label)
        pts = rays.origins[agreeing] + grid_hits.distance[agreeing, None] * rays.directions[agreeing]
        assert np.percentile(self.surface_distance(street_scene, pts), 99) <= diag

    def test_steep_rays_agree_along_ray(self, cyl_spec, street_scene):
        # near-vertical rays: along-ray and perpendicular gaps coincide, so
        # the literal |distance| <= diagonal bound applies directly
        gt = analytic_voxel_gt(street_scene, cyl_spec, 3)
        rays = generate_rays(128, 8, (-1.3, -0.6), origin=(0.0, 0.0, 0.3))
        grid_hits = cast_rays(rays, gt)
        t, label, hit = scene_first_hit(street_scene, rays.origins, rays.directions, 40.0)
        both = hit & grid_hits.hit & (grid_hits.label == label)
        assert both.mean() >= 0.98
        diag = math.sqrt(0.2**2 + (25.6 * 2 * math.pi / 200) ** 2 + 0.4**2)
        assert np.max(np.abs(grid_hits.distance[both] - t[both])) <= diag
