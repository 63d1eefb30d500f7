import math

import numpy as np
import pytest

from spatialgrammar.compiler import (
    CompilerConfig,
    CompiledScene,
    anchor_sublayout,
    compile_building,
    compile_placement,
    compile_scene,
    compile_source,
    compose_frames,
)
from spatialgrammar.errors import EmptyBlockError
from spatialgrammar.geometry import OrientedBox, Vec3
from spatialgrammar.llmsli import Face, SceneProgram, parse_llmsli, print_llmsli, program_hash
from spatialgrammar.llmslb import BuildingProgram, WallFace, parse_llmslb
from spatialgrammar.vocab import Category

from conftest import make_room


def ang_eq(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi) < tol


# ---------------------------------------------------------------------------
# independent pose oracle: 4x4 homogeneous matrices


def rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    m = np.eye(4)
    m[0, 0], m[0, 1] = c, -s
    m[1, 0], m[1, 1] = s, c
    return m


def trans(x: float, y: float, z: float) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def frame(center, yaw: float) -> np.ndarray:
    return trans(*center) @ rot_z(yaw)


def pose_of(m: np.ndarray) -> tuple[tuple[float, float, float], float]:
    return tuple(m[:3, 3]), math.atan2(m[1, 0], m[0, 0])


def assert_box_matches(box: OrientedBox, m: np.ndarray, tol: float = 1e-9) -> None:
    (x, y, z), yaw = pose_of(m)
    assert abs(box.center.x - x) < tol
    assert abs(box.center.y - y) < tol
    assert abs(box.center.z - z) < tol
    assert ang_eq(box.yaw, yaw, tol)


class TestSingleCell:
    def test_floor_item(self, vocab):
        src = "llmsli grid=1m dims=3x6\nmain:\n" + "\n".join(
            " ".join("tv_stand" if (i, j) == (2, 5) else "0" for j in range(6))
            for i in range(3)
        ) + "\n"
        scene = compile_scene(parse_llmsli(src), vocab)
        box = scene.placements[0].box
        assert (box.center.x, box.center.y) == (2.0, 5.0)
        assert box.center.z == pytest.approx(0.25)
        assert box.center.z - box.size.z / 2.0 == 0.0  # exactly on the floor

    def test_size_override(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=50cm dims=1x1\nmain:\nsofa[2.0x0.9x0.8]\n"), vocab
        )
        box = scene.placements[0].box
        assert box.center == Vec3(0.0, 0.0, 0.4)
        assert box.size == Vec3(2.0, 0.9, 0.8)

    def test_ceiling_item_hangs(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\npendant_light\n"), vocab
        )
        box = scene.placements[0].box
        assert box.center.z + box.size.z / 2.0 == pytest.approx(2.6)

    def test_ceiling_height_config(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\npendant_light\n"),
            vocab,
            CompilerConfig(ceiling_height_m=3.2),
        )
        box = scene.placements[0].box
        assert box.center.z + box.size.z / 2.0 == pytest.approx(3.2)

    def test_surface_item_at_root_warns(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nvase\n"), vocab
        )
        assert any("vase_0" in w and "floor" in w for w in scene.warnings)
        box = scene.placements[0].box
        assert box.center.z - box.size.z / 2.0 == 0.0

    def test_compile_placement_yaw(self, vocab):
        from spatialgrammar.llmsli import CellSpec
        from spatialgrammar.geometry import GridSpec

        box = compile_placement(
            CellSpec(key="sofa", yaw_deg=90), (1, 2), GridSpec(1.0, 3, 3), vocab
        )
        assert (box.center.x, box.center.y) == (1.0, 2.0)
        assert ang_eq(box.yaw, math.pi / 2.0)


class TestComposeFrames:
    def test_identity_parent(self):
        parent = OrientedBox(Vec3(0, 0, 0), Vec3(1, 1, 1), 0.0)
        child = OrientedBox(Vec3(1, 2, 3), Vec3(0.1, 0.1, 0.1), 0.5)
        out = compose_frames(parent, child)
        assert out.center == Vec3(1, 2, 3)
        assert out.yaw == 0.5

    def test_rotated_parent(self):
        parent = OrientedBox(Vec3(5, 0, 1), Vec3(1, 1, 1), math.pi / 2.0)
        child = OrientedBox(Vec3(1, 0, 0), Vec3(0.1, 0.1, 0.1), 0.0)
        out = compose_frames(parent, child)
        assert abs(out.center.x - 5.0) < 1e-12
        assert abs(out.center.y - 1.0) < 1e-12
        assert ang_eq(out.yaw, math.pi / 2.0)

    def test_matches_matrix_product(self):
        parent = OrientedBox(Vec3(2, -1, 0.5), Vec3(1, 1, 1), 1.1)
        child = OrientedBox(Vec3(0.3, 0.4, 0.2), Vec3(0.1, 0.1, 0.1), -0.7)
        out = compose_frames(parent, child)
        m = frame(parent.center.as_tuple(), parent.yaw) @ frame(
            child.center.as_tuple(), child.yaw
        )
        assert_box_matches(out, m)


class TestFaceAnchoring:
    def _children(self, parent, face, src, vocab):
        block = parse_llmsli(src).blocks["B"]
        return anchor_sublayout(parent, face, block, vocab)

    def test_top_slots_along_longer_axis(self, vocab):
        parent = OrientedBox(Vec3(0, 0, 0.5), Vec3(3.0, 1.0, 1.0), 0.0)
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout B dims=2x1:\nvase[0.1x0.1x0.2]\nvase[0.1x0.1x0.2]\n"
        )
        kids = self._children(parent, Face.TOP, src, vocab)
        # x is the longer in-plane axis, so the two rows spread along x
        assert [k.local_box.center.x for k in kids] == [-0.75, 0.75]
        assert all(k.local_box.center.y == 0.0 for k in kids)
        assert all(k.local_box.center.z == 0.5 + 0.1 for k in kids)

    def test_top_slots_swap_when_y_longer(self, vocab):
        parent = OrientedBox(Vec3(0, 0, 0.5), Vec3(1.0, 3.0, 1.0), 0.0)
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout B dims=2x1:\nvase[0.1x0.1x0.2]\nvase[0.1x0.1x0.2]\n"
        )
        kids = self._children(parent, Face.TOP, src, vocab)
        assert [k.local_box.center.y for k in kids] == [-0.75, 0.75]
        assert all(k.local_box.center.x == 0.0 for k in kids)

    def test_tie_prefers_x(self, vocab):
        parent = OrientedBox(Vec3(0, 0, 0.5), Vec3(2.0, 2.0, 1.0), 0.0)
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout B dims=2x1:\nvase[0.1x0.1x0.2]\nvase[0.1x0.1x0.2]\n"
        )
        kids = self._children(parent, Face.TOP, src, vocab)
        assert [k.local_box.center.x for k in kids] == [-0.5, 0.5]

    @pytest.mark.parametrize(
        "face,expect_center,expect_yaw",
        [
            (Face.FRONT, (0.5, 0.0, 0.0), 0.0),
            (Face.BACK, (-0.5, 0.0, 0.0), math.pi),
            (Face.LEFT, (0.0, 0.35, 0.0), math.pi / 2.0),
            (Face.RIGHT, (0.0, -0.35, 0.0), 3.0 * math.pi / 2.0),
        ],
    )
    def test_vertical_face_mounts(self, vocab, face, expect_center, expect_yaw):
        # parent 0.8 x 0.5 x 2.0; child length (x) 0.2 -> standoff 0.1
        parent = OrientedBox(Vec3(0, 0, 1.0), Vec3(0.8, 0.5, 2.0), 0.0)
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout B dims=1x1:\ntv[0.2x0.6x0.4]\n"
        )
        kids = self._children(parent, face, src, vocab)
        assert kids[0].local_box.center.as_tuple() == pytest.approx(expect_center)
        assert ang_eq(kids[0].local_box.yaw, expect_yaw)

    def test_vertical_face_rows_run_up(self, vocab):
        # front face of a tall parent: z is the longer in-plane axis
        parent = OrientedBox(Vec3(0, 0, 0.9), Vec3(0.8, 0.3, 1.8), 0.0)
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout B dims=2x1:\ntv[0.05x0.6x0.35]\ntv[0.05x0.6x0.35]\n"
        )
        kids = self._children(parent, Face.FRONT, src, vocab)
        assert [k.local_box.center.z for k in kids] == pytest.approx([-0.45, 0.45])
        assert all(k.local_box.center.x == pytest.approx(0.425) for k in kids)

    def test_bottom_hangs(self, vocab):
        parent = OrientedBox(Vec3(0, 0, 2.7), Vec3(5.0, 5.0, 0.2), 0.0)
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout B dims=1x1:\npendant_light[0.4x0.4x0.6]\n"
        )
        kids = self._children(parent, Face.BOTTOM, src, vocab)
        assert kids[0].local_box.center.z == pytest.approx(-0.4)

    def test_empty_block_rejected(self, vocab):
        parent = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        block = parse_llmsli(
            "llmsli grid=1m dims=1x1\nmain:\nsofa\nsublayout B dims=1x2:\n0 0\n"
        ).blocks["B"]
        with pytest.raises(EmptyBlockError):
            anchor_sublayout(parent, Face.TOP, block, vocab)


NESTED = (
    "llmsli grid=1m dims=2x2\n"
    "main:\n"
    "0 desk@90[1.4x0.7x0.75](Stack_on_top)\n"
    "sofa@45[1.0x1.0x1.0] 0\n"
    "sublayout Stack dims=1x2:\n"
    "monitor@30[0.5x0.1x0.4](Cup_on_top) 0\n"
    "sublayout Cup dims=1x1:\n"
    "vase@10[0.1x0.1x0.2]\n"
)


class TestNestedOracle:
    def test_matrix_chain(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        by_id = {p.id: p for p in scene.placements}
        assert set(by_id) == {"desk_0", "monitor_0", "vase_0", "sofa_0"}

        deg = math.radians
        m_desk = frame((0.0, 1.0, 0.375), deg(90))
        # desk top 1x2 block: rows along x (1.4 > 0.7), monitor in column 0 of 2
        m_monitor = m_desk @ frame((0.0, -0.175, 0.375 + 0.2), deg(30))
        m_vase = m_monitor @ frame((0.0, 0.0, 0.2 + 0.1), deg(10))
        m_sofa = frame((1.0, 0.0, 0.5), deg(45))

        assert_box_matches(by_id["desk_0"].box, m_desk)
        assert_box_matches(by_id["monitor_0"].box, m_monitor)
        assert_box_matches(by_id["vase_0"].box, m_vase)
        assert_box_matches(by_id["sofa_0"].box, m_sofa)

    def test_parent_and_depth(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        by_id = {p.id: p for p in scene.placements}
        assert by_id["desk_0"].parent is None and by_id["desk_0"].depth == 0
        assert by_id["monitor_0"].parent == "desk_0" and by_id["monitor_0"].depth == 1
        assert by_id["vase_0"].parent == "monitor_0" and by_id["vase_0"].depth == 2
        assert by_id["vase_0"].source.block == "Cup"
        assert by_id["monitor_0"].source.face is Face.TOP

    def test_stack_contact_is_tight(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        by_id = {p.id: p for p in scene.placements}
        desk, monitor, vase = by_id["desk_0"].box, by_id["monitor_0"].box, by_id["vase_0"].box
        assert abs((monitor.center.z - 0.2) - (desk.center.z + 0.375)) < 1e-12
        assert abs((vase.center.z - 0.1) - (monitor.center.z + 0.2)) < 1e-12


class TestOrderingAndIds:
    def test_row_major_and_counters(self, vocab):
        src = "llmsli grid=1m dims=2x2\nmain:\nsofa sofa\n0 sofa\n"
        scene = compile_scene(parse_llmsli(src), vocab)
        assert [p.id for p in scene.placements] == ["sofa_0", "sofa_1", "sofa_2"]
        assert [p.source.row for p in scene.placements] == [0, 0, 1]

    def test_children_follow_parent(self, vocab):
        src = (
            "llmsli grid=1m dims=1x2\nmain:\ndesk(A_on_top) desk(A_on_top)\n"
            "sublayout A dims=1x1:\nvase\n"
        )
        scene = compile_scene(parse_llmsli(src), vocab)
        assert [p.id for p in scene.placements] == ["desk_0", "vase_0", "desk_1", "vase_1"]

    def test_face_order_within_cell(self, vocab):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nbookshelf(L_on_left)(T_on_top)\n"
            "sublayout T dims=1x1:\nvase\nsublayout L dims=1x1:\ntv\n"
        )
        scene = compile_scene(parse_llmsli(src), vocab)
        # top comes before left in the face order
        assert [p.identifier for p in scene.placements] == ["bookshelf", "vase", "tv"]

    def test_deterministic(self, vocab):
        p = parse_llmsli(NESTED)
        assert compile_scene(p, vocab) == compile_scene(p, vocab)

    def test_provenance_hash(self, vocab):
        p = parse_llmsli(NESTED)
        scene = compile_scene(p, vocab)
        assert scene.provenance == program_hash(print_llmsli(p))


class TestPoseRecovery:
    def test_flat_scene_yaw_shift(self, vocab):
        src = "llmsli grid=1m dims=2x2\nmain:\nsofa@45 tv_stand\n0 bed@180\n"
        base = compile_scene(parse_llmsli(src), vocab)
        rotated_src = src.replace("sofa@45", "sofa@135").replace(
            "tv_stand", "tv_stand@90"
        ).replace("bed@180", "bed@270")
        rotated = compile_scene(parse_llmsli(rotated_src), vocab)
        for a, b in zip(base.placements, rotated.placements):
            assert a.box.center == b.box.center  # cells do not move
            assert ang_eq(b.box.yaw, a.box.yaw + math.pi / 2.0)

    def test_root_rotation_moves_subtree_rigidly(self, vocab):
        base = compile_scene(parse_llmsli(NESTED), vocab)
        rotated = compile_scene(
            parse_llmsli(NESTED.replace("desk@90", "desk@180")), vocab
        )
        root = base.by_id("desk_0").box
        r = rot_z(math.pi / 2.0)[:3, :3]
        for pid in ("desk_0", "monitor_0", "vase_0"):
            a, b = base.by_id(pid).box, rotated.by_id(pid).box
            rel = np.array((a.center - root.center).as_tuple())
            expect = np.array(root.center.as_tuple()) + r @ rel
            assert np.allclose(np.array(b.center.as_tuple()), expect, atol=1e-9)
            assert ang_eq(b.yaw, a.yaw + math.pi / 2.0)


RING = (
    "llmslb grid=1m dims=5x5\n"
    "main:\n"
    "w w d w w\n"
    "w 0 0 0 w\n"
    "w 0 0 0 c\n"
    "w 0 0 0 w\n"
    "w w d w w\n"
)


class TestBuildingWalls:
    def test_ring_wall_boxes(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        walls = {p.id: p.box for p in scene.structural}
        assert set(walls) == {"wall_0", "wall_1", "wall_2", "wall_3"}
        assert walls["wall_0"].center == Vec3(2.0, 0.0, 1.3)
        assert walls["wall_0"].size == Vec3(5.0, 0.2, 2.6)
        assert walls["wall_1"].center == Vec3(2.0, 4.0, 1.3)
        assert walls["wall_2"].center == Vec3(0.0, 2.0, 1.3)
        assert walls["wall_2"].size == Vec3(0.2, 5.0, 2.6)
        assert walls["wall_3"].center == Vec3(4.0, 2.0, 1.3)
        assert all(p.category is Category.STRUCTURAL for p in scene.structural)

    def test_l_shape(self, vocab):
        src = "llmslb grid=1m dims=3x3\nmain:\nw 0 0\nw 0 0\nw w w\n"
        scene = compile_building(parse_llmslb(src), vocab)
        boxes = [p.box for p in scene.structural]
        assert boxes[0].center == Vec3(1.0, 0.0, 1.3)
        assert boxes[0].size == Vec3(3.0, 0.2, 2.6)
        assert boxes[1].center == Vec3(2.0, 1.0, 1.3)
        assert boxes[1].size == Vec3(0.2, 3.0, 2.6)

    def test_isolated_wall_cell(self, vocab):
        src = "llmslb grid=1m dims=3x3\nmain:\n0 0 0\n0 w 0\n0 0 0\n"
        scene = compile_building(parse_llmslb(src), vocab)
        assert len(scene.structural) == 1
        assert scene.structural[0].box.size == Vec3(1.0, 0.2, 2.6)

    def test_thickness_and_height_override(self, vocab):
        src = "llmslb grid=1m dims=1x3 height=3m thickness=0.4m\nmain:\nw w w\n"
        scene = compile_building(parse_llmslb(src), vocab)
        assert scene.structural[0].box.size == Vec3(0.4, 3.0, 3.0)
        assert scene.structural[0].box.center.z == 1.5


class TestBuildingOpenings:
    def test_opening_records(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        assert [o.id for o in scene.openings] == ["door_0", "window_0", "door_1"]
        door0 = scene.openings[0]
        assert door0.cell == (0, 2)
        assert door0.wall == "wall_2"
        assert door0.center == Vec3(0.0, 2.0, 1.0)
        assert (door0.width_m, door0.height_m, door0.sill_m) == (0.9, 2.0, 0.0)
        window = scene.openings[1]
        assert window.cell == (2, 4)
        assert window.wall == "wall_1"
        assert window.center.z == pytest.approx(0.9 + 0.6)
        assert scene.openings[2].cell == (4, 2)
        assert scene.openings[2].wall == "wall_3"

    def test_openings_do_not_cut_walls(self, vocab):
        solid = RING.replace("w w d w w", "w w w w w").replace("w 0 0 0 c", "w 0 0 0 w")
        with_openings = compile_building(parse_llmslb(RING), vocab)
        without = compile_building(parse_llmslb(solid), vocab)
        assert [p.box for p in with_openings.structural] == [
            p.box for p in without.structural
        ]


class TestWallMounts:
    def test_inner_mount(self, vocab):
        src = (
            "llmslb grid=1m dims=5x5\nmain:\n"
            "w w w w w\n"
            "w 0 0 0 w\n"
            "w(AC_on_inner) 0 0 0 w\n"
            "w 0 0 0 w\n"
            "w w w w w\n"
            "sublayout AC dims=1x1:\nair_conditioner[0.4x0.8x0.3]\n"
        )
        scene = compile_building(parse_llmslb(src), vocab)
        ac = scene.placements[0]
        assert ac.id == "air_conditioner_0"
        assert ac.parent == "wall_0"
        assert ac.depth == 1
        assert ac.source.face is WallFace.INNER
        # wall plane y=0.1 plus half the unit length 0.2
        assert ac.box.center.as_tuple() == pytest.approx((2.0, 0.3, 1.3))
        assert ang_eq(ac.box.yaw, math.pi / 2.0)

    def test_outer_mount(self, vocab):
        src = (
            "llmslb grid=1m dims=5x5\nmain:\n"
            "w w w w w\n"
            "w 0 0 0 w\n"
            "w(AC_on_outer) 0 0 0 w\n"
            "w 0 0 0 w\n"
            "w w w w w\n"
            "sublayout AC dims=1x1:\nair_conditioner[0.4x0.8x0.3]\n"
        )
        scene = compile_building(parse_llmslb(src), vocab)
        ac = scene.placements[0]
        assert ac.box.center.as_tuple() == pytest.approx((2.0, -0.3, 1.3))
        assert ang_eq(ac.box.yaw, 3.0 * math.pi / 2.0)

    def test_enclosed_wall_warns(self, vocab):
        src = (
            "llmslb grid=1m dims=3x3\nmain:\n"
            "w w w\nw w(A_on_inner) w\nw w w\n"
            "sublayout A dims=1x1:\ntv[0.1x0.6x0.4]\n"
        )
        scene = compile_building(parse_llmslb(src), vocab)
        assert any("enclosed by walls" in w for w in scene.warnings)


class TestCeilingBlock:
    def test_hung_from_virtual_slab(self, vocab):
        src = (
            "llmslb grid=1m dims=5x5 ceiling=Top\nmain:\n"
            "w w w w w\n"
            "w 0 0 0 w\n"
            "w 0 0 0 w\n"
            "w 0 0 0 w\n"
            "w w w w w\n"
            "sublayout Top dims=1x1:\npendant_light[0.4x0.4x0.6]\n"
        )
        scene = compile_building(parse_llmslb(src), vocab)
        light = next(p for p in scene.placements if p.identifier == "pendant_light")
        assert light.parent is None
        assert light.depth == 0
        # slab spans the whole grid; a 1x1 block centers the light
        assert (light.box.center.x, light.box.center.y) == (2.0, 2.0)
        assert light.box.center.z + light.box.size.z / 2.0 == pytest.approx(2.6)

    def test_closure_warning_propagates(self, vocab):
        src = "llmslb grid=1m dims=1x4\nmain:\nw w w w\n"
        scene = compile_building(parse_llmslb(src), vocab)
        assert any("not a closed loop" in w for w in scene.warnings)


class TestBuildingLowering:
    """Ids, parents, depths and provenance for every way a building places
    non-structural objects: wall faces, nesting under a mount, and the ceiling."""

    SRC = (
        "llmslb grid=1m dims=5x5 ceiling=Top\nmain:\n"
        "w w w w w\n"
        "w 0 0 0 w\n"
        "w(Shelf_on_inner) 0 0 0 w(AC_on_outer)\n"
        "w 0 0 0 w\n"
        "w w w w w\n"
        "sublayout Shelf dims=1x1:\nwall_shelf(Deco_on_top)\n"
        "sublayout Deco dims=1x2:\nvase book_stack\n"
        "sublayout AC dims=1x1:\nair_conditioner\n"
        "sublayout Top dims=1x2:\npendant_light(Shade_on_bottom) plant\n"
        "sublayout Shade dims=1x1:\nmug\n"
    )

    def test_placement_tree(self, vocab):
        scene = compile_building(parse_llmslb(self.SRC), vocab)
        got = [
            (
                p.id,
                p.parent,
                p.depth,
                (p.source.block, p.source.row, p.source.col, p.source.depth, p.source.face),
            )
            for p in scene.placements
        ]
        assert got == [
            ("wall_shelf_0", "wall_0", 1, ("Shelf", 0, 0, 1, WallFace.INNER)),
            ("vase_0", "wall_shelf_0", 2, ("Deco", 0, 0, 2, Face.TOP)),
            ("book_stack_0", "wall_shelf_0", 2, ("Deco", 0, 1, 2, Face.TOP)),
            ("air_conditioner_0", "wall_1", 1, ("AC", 0, 0, 1, WallFace.OUTER)),
            ("pendant_light_0", None, 0, ("Top", 0, 0, 0, Face.BOTTOM)),
            ("mug_0", "pendant_light_0", 1, ("Shade", 0, 0, 1, Face.BOTTOM)),
            ("plant_0", None, 0, ("Top", 0, 1, 0, Face.BOTTOM)),
        ]
        assert scene.warnings == ("floor_furniture 'plant_0' hangs from the ceiling plane",)


class TestCompileSource:
    def test_dispatch_indoor(self, vocab):
        program, scene = compile_source(make_room("sofa"), vocab)
        assert isinstance(program, SceneProgram)
        assert isinstance(scene, CompiledScene)
        assert not scene.structural

    def test_dispatch_building(self, vocab):
        program, scene = compile_source(RING, vocab)
        assert isinstance(program, BuildingProgram)
        assert scene.structural
