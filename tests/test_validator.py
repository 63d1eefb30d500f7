import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialgrammar.compiler import (
    CompiledScene,
    Placement,
    Provenance,
    compile_building,
    compile_placement,
    compile_scene,
)
from spatialgrammar.errors import ConfigError
from spatialgrammar.geometry import GridSpec, OrientedBox, Vec3
from spatialgrammar.llmsli import CellSpec, GridBlock, SceneProgram, parse_llmsli
from spatialgrammar.llmslb import parse_llmslb
from spatialgrammar.validator import (
    ValidatorConfig,
    aabbs_apart,
    check_bounds,
    check_collisions,
    check_support,
    collision_rate,
    floor_rect,
    footprint,
    footprint_intersect,
    footprint_on_floor,
    obb_intersect,
    report_text,
    validate,
)
from spatialgrammar.vocab import Category


# ---------------------------------------------------------------------------
# an independent SAT written over corner projections with numpy


def corners_2d(box: OrientedBox) -> np.ndarray:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    r = np.array([[c, -s], [s, c]])
    half = np.array([box.size.x / 2.0, box.size.y / 2.0])
    offsets = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) * half
    return np.array([box.center.x, box.center.y]) + offsets @ r.T


def sat_margin(a: OrientedBox, b: OrientedBox) -> float:
    """Min interval overlap over the z axis and both boxes' in-plane normals.

    Positive means the boxes interpenetrate by that depth, negative means some
    axis separates them.
    """
    z = min(a.center.z + a.size.z / 2, b.center.z + b.size.z / 2) - max(
        a.center.z - a.size.z / 2, b.center.z - b.size.z / 2
    )
    margins = [z]
    ca, cb = corners_2d(a), corners_2d(b)
    for yaw in (a.yaw, b.yaw):
        c, s = math.cos(yaw), math.sin(yaw)
        for axis in (np.array([c, s]), np.array([-s, c])):
            pa, pb = ca @ axis, cb @ axis
            margins.append(min(pa.max(), pb.max()) - max(pa.min(), pb.min()))
    return min(margins)


def point_in_box_2d(px: float, py: float, box: OrientedBox) -> bool:
    dx, dy = px - box.center.x, py - box.center.y
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return abs(u) <= box.size.x / 2.0 and abs(v) <= box.size.y / 2.0


def random_box(rng: random.Random, span: float = 2.0) -> OrientedBox:
    q = lambda v: round(v * 20) / 20.0  # keep coordinates off the eps knife edge
    return OrientedBox(
        center=Vec3(
            q(rng.uniform(-span, span)), q(rng.uniform(-span, span)), q(rng.uniform(0.2, 1.5))
        ),
        size=Vec3(q(rng.uniform(0.3, 2.0)), q(rng.uniform(0.3, 2.0)), q(rng.uniform(0.3, 1.0))),
        yaw=math.radians(rng.choice(range(0, 360, 15))),
    )


class TestObbIntersect:
    def test_separated(self):
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        b = OrientedBox(Vec3(3, 0, 0.5), Vec3(1, 1, 1), 0.0)
        assert obb_intersect(a, b) is None

    def test_exact_touch_is_clear(self):
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        b = OrientedBox(Vec3(1.0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        assert obb_intersect(a, b) is None

    def test_penetration_depth(self):
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        b = OrientedBox(Vec3(0.5, 0, 0.5), Vec3(1, 1, 1), 0.0)
        assert obb_intersect(a, b) == pytest.approx(0.5)

    def test_z_separation(self):
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        b = OrientedBox(Vec3(0, 0, 2.0), Vec3(1, 1, 1), 0.0)
        assert obb_intersect(a, b) is None

    def test_stacked_touching_in_z(self):
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        b = OrientedBox(Vec3(0, 0, 1.5), Vec3(1, 1, 1), 0.0)
        assert obb_intersect(a, b) is None

    def test_rotated_corner_cases(self):
        # a 45-degree square pokes its corner into an axis-aligned one
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        close = OrientedBox(Vec3(1.2, 0, 0.5), Vec3(1, 1, 1), math.pi / 4)
        far = OrientedBox(Vec3(1.21, 0, 0.5), Vec3(1, 1, 1), math.pi / 4)
        assert obb_intersect(a, close) is not None
        assert obb_intersect(a, far) is None

    def test_symmetry(self, rng):
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert obb_intersect(a, b) == obb_intersect(b, a)

    def test_matches_corner_projection_sat(self, rng):
        hits = 0
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            margin = sat_margin(a, b)
            depth = obb_intersect(a, b)
            if margin > 1e-6:
                hits += 1
                assert depth == pytest.approx(margin, abs=1e-9)
            elif margin < 1e-6 - 1e-9:
                assert depth is None
        assert hits > 30  # the sample actually exercised overlapping pairs

    def test_monte_carlo_agreement(self, rng):
        """Sampled points in the footprint AABB intersection must land inside
        both boxes exactly when the exact test reports an overlap."""
        checked = 0
        for trial in range(300):
            a, b = random_box(rng), random_box(rng)
            margin = sat_margin(a, b)
            if abs(margin) <= 1e-3:
                continue  # too close to call for a sampler
            z_overlap = min(a.center.z + a.size.z / 2, b.center.z + b.size.z / 2) - max(
                a.center.z - a.size.z / 2, b.center.z - b.size.z / 2
            )
            ca, cb = corners_2d(a), corners_2d(b)
            lo = np.maximum(ca.min(axis=0), cb.min(axis=0))
            hi = np.minimum(ca.max(axis=0), cb.max(axis=0))
            if (hi <= lo).any() or z_overlap <= 0:
                assert obb_intersect(a, b) is None
                checked += 1
                continue
            pts = np.column_stack(
                [
                    np.array([rng.uniform(lo[0], hi[0]) for _ in range(4000)]),
                    np.array([rng.uniform(lo[1], hi[1]) for _ in range(4000)]),
                ]
            )
            hit = any(
                point_in_box_2d(px, py, a) and point_in_box_2d(px, py, b) for px, py in pts
            )
            exact = obb_intersect(a, b) is not None
            if hit:
                assert exact  # a common point is a proof of overlap
            elif margin > 0.05 and z_overlap > 1e-3:
                # comfortably overlapping: the sampler must find a witness
                assert hit, (a, b)
            if not exact:
                assert not hit
            checked += 1
        assert checked > 100

    @given(
        dx=st.floats(-3, 3),
        dy=st.floats(-3, 3),
        rot=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_rigid_motion_invariance(self, dx, dy, rot):
        a = OrientedBox(Vec3(0.3, -0.2, 0.5), Vec3(1.2, 0.7, 1.0), 0.4)
        b = OrientedBox(Vec3(0.9, 0.4, 0.6), Vec3(0.8, 1.1, 0.9), 1.9)

        def moved(box: OrientedBox) -> OrientedBox:
            c, s = math.cos(rot), math.sin(rot)
            x = box.center.x * c - box.center.y * s + dx
            y = box.center.x * s + box.center.y * c + dy
            return OrientedBox(Vec3(x, y, box.center.z), box.size, box.yaw + rot)

        before = obb_intersect(a, b)
        after = obb_intersect(moved(a), moved(b))
        if before is None:
            assert after is None
        else:
            assert after == pytest.approx(before, abs=1e-9)


def scene_of_boxes(boxes, grid=GridSpec(1.0, 6, 6)) -> CompiledScene:
    placements = tuple(
        Placement(
            id=f"box_{k}",
            identifier="box",
            category=Category.FLOOR_FURNITURE,
            box=box,
            parent=None,
            depth=0,
            source=Provenance("main", k, 0, 0),
        )
        for k, box in enumerate(boxes)
    )
    return CompiledScene(grid=grid, placements=placements)


class TestCheckCollisions:
    def test_brute_force_parity(self, rng):
        for _ in range(30):
            boxes = [random_box(rng, span=1.5) for _ in range(8)]
            scene = scene_of_boxes(boxes)
            got = {(c.a_id, c.b_id) for c in check_collisions(scene)}
            want = set()
            for i, j in itertools.combinations(range(len(boxes)), 2):
                if sat_margin(boxes[i], boxes[j]) > 1e-6:
                    want.add((f"box_{i}", f"box_{j}"))
            assert got == want

    def test_message_wording(self, vocab):
        src = (
            "llmsli grid=1m dims=4x4\nmain:\n"
            "0 0 0 0\n"
            "0 sofa 0 0\n"
            "0 coffee_table 0 0\n"
            "0 0 0 0\n"
        )
        scene = compile_scene(parse_llmsli(src), vocab)
        diags = check_collisions(scene)
        assert len(diags) == 1
        assert diags[0].message == "Coffee table overlaps with sofa at position (1,1)"
        assert diags[0].a_id == "coffee_table_0"
        assert diags[0].b_id == "sofa_0"
        assert diags[0].b_cell == (1, 1)

    def test_child_never_collides_with_ancestors(self, vocab):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\ntv_stand(A_on_top)\n"
            "sublayout A dims=1x1:\ntv\n"
        )
        scene = compile_scene(parse_llmsli(src), vocab)
        assert check_collisions(scene) == []

    def test_siblings_do_collide(self, vocab):
        # two items share the single slot column on a narrow top
        src = (
            "llmsli grid=1m dims=1x1\nmain:\ndesk[1.2x0.6x0.7](A_on_top)(B_on_top)\n"
            "sublayout A dims=1x1:\nmonitor[0.5x0.2x0.4]\n"
            "sublayout B dims=1x1:\nlaptop[0.4x0.3x0.05]\n"
        )
        with pytest.raises(Exception):
            compile_scene(parse_llmsli(src), vocab)

    def test_wall_joints_not_reported(self, vocab):
        ring = (
            "llmslb grid=1m dims=4x4\nmain:\n"
            "w w w w\nw 0 0 w\nw 0 0 w\nw w w w\n"
        )
        scene = compile_building(parse_llmslb(ring), vocab)
        assert check_collisions(scene) == []

    def test_furniture_hits_wall(self, vocab):
        wall = Placement(
            id="wall_0",
            identifier="wall",
            category=Category.STRUCTURAL,
            box=OrientedBox(Vec3(0, 0, 1.3), Vec3(4.0, 0.2, 2.6), 0.0),
            parent=None,
            depth=0,
            source=Provenance("structural", 0, 0, 0),
        )
        sofa = Placement(
            id="sofa_0",
            identifier="sofa",
            category=Category.FLOOR_FURNITURE,
            box=OrientedBox(Vec3(0, 0.05, 0.4), Vec3(1.9, 0.9, 0.8), 0.0),
            parent=None,
            depth=0,
            source=Provenance("main", 0, 0, 0),
        )
        scene = CompiledScene(
            grid=GridSpec(1.0, 4, 4), placements=(sofa,), structural=(wall,)
        )
        diags = check_collisions(scene)
        assert [(d.a_id, d.b_id) for d in diags] == [("sofa_0", "wall_0")]

    def test_pure(self, vocab):
        src = "llmsli grid=1m dims=4x4\nmain:\n0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n"
        scene = compile_scene(parse_llmsli(src), vocab)
        first = check_collisions(scene)
        second = check_collisions(scene)
        assert first == second


# ---------------------------------------------------------------------------
# check_collisions against an all-pairs reference kept only here


def all_pairs_collisions(scene: CompiledScene, eps: float) -> list[tuple]:
    """Every i < j pair of all_placements() through obb_intersect, with the
    structural and ancestor filters, as (ids, cells, depth, message) rows."""
    everything = scene.all_placements()
    parent = {p.id: p.parent for p in everything}

    def chain(pid):
        seen = set()
        cur = parent[pid]
        while cur is not None and cur not in seen:
            seen.add(cur)
            cur = parent.get(cur)
        return seen

    def display(pid):
        stem, _, tail = pid.rpartition("_")
        return (stem if stem and tail.isdigit() else pid).replace("_", " ")

    rows = []
    for i, j in itertools.combinations(range(len(everything)), 2):
        a, b = everything[i], everything[j]
        if a.category is Category.STRUCTURAL and b.category is Category.STRUCTURAL:
            continue
        if b.id in chain(a.id) or a.id in chain(b.id):
            continue
        depth = obb_intersect(a.box, b.box, eps)
        if depth is None:
            continue
        first, second = sorted((a, b), key=lambda p: p.id)
        name = display(first.id)
        rows.append(
            (
                first.id,
                second.id,
                (first.source.row, first.source.col),
                (second.source.row, second.source.col),
                depth,
                f"{name[:1].upper()}{name[1:]} overlaps with {display(second.id)} "
                f"at position ({second.source.row},{second.source.col})",
            )
        )
    return rows


SHELL = (
    "llmslb grid=1m dims=8x8\nmain:\n"
    "w w w d w w w w\n"
    "w 0 0 0 0 0 0 w\n"
    "w 0 0 0 0 0 0 w\n"
    "w 0 0 0 0 0 0 c\n"
    "w 0 0 0 0 0 0 w\n"
    "w 0 0 0 0 0 0 w\n"
    "w 0 0 0 0 0 0 w\n"
    "w w w w w w w w\n"
)
IDENTS = ("sofa", "chair", "coffee_table", "lamp", "box")


def random_scene(seed: int, vocab) -> CompiledScene:
    """50-200 boxes in and around one wall shell: arbitrary yaws, exact face
    and edge contact, stacks touching in z, and parent-child chains whose
    boxes interpenetrate."""
    rng = random.Random(seed)
    shell = compile_building(parse_llmslb(SHELL), vocab)
    placements: list[Placement] = []

    def add(box, parent=None):
        depth = 0 if parent is None else parent.depth + 1
        ident = rng.choice(IDENTS)
        p = Placement(
            id=f"{ident}_{len(placements)}",
            identifier=ident,
            category=Category.FLOOR_FURNITURE if parent is None else Category.SURFACE_ITEM,
            box=box,
            parent=None if parent is None else parent.id,
            depth=depth,
            source=Provenance("main" if parent is None else "Top", rng.randrange(8),
                              rng.randrange(8), depth),
        )
        placements.append(p)
        return p

    def size():
        return Vec3(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.5))

    n = rng.randint(50, 200)
    while len(placements) < n:
        kind = rng.random()
        if kind < 0.45:  # anywhere, any yaw, on the floor or raised
            sz = size()
            z = rng.choice((0.0, 0.0, rng.uniform(0.0, 1.0)))
            add(OrientedBox(Vec3(rng.uniform(-1, 8), rng.uniform(-1, 8), z + sz.z / 2),
                            sz, rng.uniform(0, 2 * math.pi)))
        elif kind < 0.6:  # two boxes of one yaw, face to face along a local axis
            sz, yaw = size(), rng.uniform(0, 2 * math.pi)
            c, s = math.cos(yaw), math.sin(yaw)
            x, y = rng.uniform(0, 7), rng.uniform(0, 7)
            dx, dy = rng.choice(((sz.x * c, sz.x * s), (-sz.y * s, sz.y * c)))
            add(OrientedBox(Vec3(x, y, sz.z / 2), sz, yaw))
            add(OrientedBox(Vec3(x + dx, y + dy, sz.z / 2), sz, yaw))
        elif kind < 0.75:  # unit cubes on the grid: shared faces and shared edges
            i, j = rng.randrange(7), rng.randrange(7)
            yaw = math.radians(rng.choice((0, 90, 180, 270)))
            for di, dj in rng.sample(((0, 0), (1, 0), (0, 1), (1, 1)), 3):
                add(OrientedBox(Vec3(i + di, j + dj, 0.5), Vec3(1, 1, 1), yaw))
        elif kind < 0.85:  # a box stacked exactly on another
            base = rng.choice(placements) if placements else None
            if base is not None:
                b, sz = base.box, size()
                add(OrientedBox(Vec3(b.center.x, b.center.y, b.top_z + sz.z / 2), sz, b.yaw))
        elif placements:  # a child and grandchild sinking into their ancestors
            node = rng.choice(placements)
            for _ in range(rng.randint(1, 2)):
                b = node.box
                sz = Vec3(b.size.x * 0.6, b.size.y * 0.6, rng.uniform(0.1, 0.5))
                node = add(
                    OrientedBox(Vec3(b.center.x, b.center.y, b.top_z + sz.z / 2 - 0.05), sz,
                                b.yaw + rng.uniform(-0.3, 0.3)),
                    parent=node,
                )
    return CompiledScene(
        grid=GridSpec(1.0, 8, 8), placements=tuple(placements), structural=shell.structural
    )


class TestBroadPhaseEquivalence:
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 0.05])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_all_pairs(self, seed, eps, vocab):
        scene = random_scene(seed, vocab)
        got = [
            (d.a_id, d.b_id, d.a_cell, d.b_cell, d.penetration_depth_m, d.message)
            for d in check_collisions(scene, eps)
        ]
        want = all_pairs_collisions(scene, eps)
        assert got == want
        # the scene exercises walls, parent chains and plain pairs alike
        assert any(row[1].startswith("wall_") for row in want)
        assert any(row[0].startswith("wall_") or row[1].startswith("wall_") for row in got)
        assert len(want) > 10

    def test_ancestor_overlaps_are_present_and_exempt(self, vocab):
        scene = random_scene(3, vocab)
        children = [p for p in scene.placements if p.parent is not None]
        assert children
        by_id = {p.id: p for p in scene.placements}
        assert any(obb_intersect(p.box, by_id[p.parent].box) is not None for p in children)
        reported = {frozenset((d.a_id, d.b_id)) for d in check_collisions(scene)}
        assert not any(frozenset((p.id, p.parent)) in reported for p in children)


@st.composite
def yaw_only_boxes(draw):
    """A box anywhere within 50 m of the origin, at a right-angle, whole-degree
    or any yaw."""
    coord = st.floats(-50.0, 50.0)
    length = st.floats(0.01, 10.0)
    yaw = draw(
        st.one_of(
            st.sampled_from([0, 90, 180, 270]).map(math.radians),
            st.integers(0, 359).map(math.radians),
            st.floats(0.0, 2 * math.pi),
        )
    )
    return OrientedBox(
        Vec3(draw(coord), draw(coord), draw(st.floats(0.0, 3.0))),
        Vec3(draw(length), draw(length), draw(length)),
        yaw,
    )


class TestAabbReject:
    """aabbs_apart() may only drop pairs the separating-axis test clears."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        a=yaw_only_boxes(),
        b=yaw_only_boxes(),
        side=st.sampled_from(["free", "+x", "-x", "+y", "-y"]),
        gap=st.floats(-1e-3, 1e-6),
        eps=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    )
    def test_apart_implies_no_intersection(self, a, b, side, gap, eps):
        fa = footprint(a)
        if side != "free":
            # slide b so its AABB ends gap past a's on that side: just apart
            # or just overlapping
            fb = footprint(b)
            dx = dy = 0.0
            if side == "+x":
                dx = fa[5] + gap - fb[4]
            elif side == "-x":
                dx = fa[4] - gap - fb[5]
            elif side == "+y":
                dy = fa[7] + gap - fb[6]
            else:
                dy = fa[6] - gap - fb[7]
            b = OrientedBox(b.center + Vec3(dx, dy, 0.0), b.size, b.yaw)
        fb = footprint(b)
        if aabbs_apart(fa, fb):
            assert footprint_intersect(fa, fb, eps) is None
            assert footprint_intersect(fb, fa, eps) is None

    def test_slack(self):
        a = footprint(OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0))
        touching = footprint(OrientedBox(Vec3(1.0, 0, 0.5), Vec3(1, 1, 1), 0.0))
        beyond = footprint(OrientedBox(Vec3(1.0 + 1e-6, 0, 0.5), Vec3(1, 1, 1), 0.0))
        diagonal = footprint(OrientedBox(Vec3(1.2, 1.2, 0.5), Vec3(1, 1, 1), math.pi / 4))
        assert not aabbs_apart(a, touching)
        assert aabbs_apart(a, beyond) and aabbs_apart(beyond, a)
        # AABBs that meet do not prove the boxes do
        assert not aabbs_apart(a, diagonal)
        assert footprint_intersect(a, diagonal) is None


class TestCollisionRate:
    def test_two_of_three(self, vocab):
        src = (
            "llmsli grid=1m dims=4x4\nmain:\n"
            "0 0 0 sofa@90\n"
            "0 sofa 0 0\n"
            "0 coffee_table 0 0\n"
            "0 0 0 0\n"
        )
        scene = compile_scene(parse_llmsli(src), vocab)
        assert collision_rate(scene) == 66.7

    def test_clean_scene(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=2x2\nmain:\nsofa 0\n0 0\n"), vocab
        )
        assert collision_rate(scene) == 0.0

    def test_empty_scene(self):
        assert collision_rate(scene_of_boxes([])) == 0.0

    def test_two_of_ten(self):
        boxes = [
            OrientedBox(Vec3(3 * k, 0, 0.5), Vec3(1, 1, 1), 0.0) for k in range(8)
        ]
        boxes.append(OrientedBox(Vec3(30, 0, 0.5), Vec3(1, 1, 1), 0.0))
        boxes.append(OrientedBox(Vec3(30.5, 0, 0.5), Vec3(1, 1, 1), 0.0))
        scene = scene_of_boxes(boxes, grid=GridSpec(1.0, 40, 40))
        assert collision_rate(scene) == 20.0


class TestCheckSupport:
    def test_floating_root(self):
        box = OrientedBox(Vec3(0, 0, 1.0), Vec3(1, 1, 0.8), 0.0)
        scene = scene_of_boxes([box])
        diags = check_support(scene)
        assert len(diags) == 1
        assert diags[0].gap_m == pytest.approx(0.6)
        assert "box_0" in diags[0].message

    def test_sunken_root(self):
        box = OrientedBox(Vec3(0, 0, 0.1), Vec3(1, 1, 0.8), 0.0)
        diags = check_support(scene_of_boxes([box]))
        assert diags[0].gap_m == pytest.approx(-0.3)

    def test_compiled_scenes_always_supported(self, vocab):
        src = (
            "llmsli grid=1m dims=2x2\nmain:\nsofa pendant_light\n0 tv_stand(A_on_top)\n"
            "sublayout A dims=1x1:\ntv\n"
        )
        scene = compile_scene(parse_llmsli(src), vocab)
        assert check_support(scene) == []

    def test_hovering_child(self):
        parent = Placement(
            id="table_0",
            identifier="table",
            category=Category.FLOOR_FURNITURE,
            box=OrientedBox(Vec3(0, 0, 0.35), Vec3(1, 1, 0.7), 0.0),
            parent=None,
            depth=0,
            source=Provenance("main", 0, 0, 0),
        )
        from spatialgrammar.llmsli import Face

        child = Placement(
            id="vase_0",
            identifier="vase",
            category=Category.SURFACE_ITEM,
            box=OrientedBox(Vec3(0, 0, 1.0), Vec3(0.1, 0.1, 0.3), 0.0),
            parent="table_0",
            depth=1,
            source=Provenance("A", 0, 0, 1, Face.TOP),
        )
        scene = CompiledScene(grid=GridSpec(1.0, 2, 2), placements=(parent, child))
        diags = check_support(scene)
        assert len(diags) == 1
        assert diags[0].id == "vase_0"
        assert diags[0].parent == "table_0"
        assert diags[0].gap_m == pytest.approx(0.15)


class TestCheckBounds:
    def test_default_envelope(self):
        inside = OrientedBox(Vec3(0.5, 0.5, 0.5), Vec3(1, 1, 1), 0.0)
        assert check_bounds(scene_of_boxes([inside], GridSpec(1.0, 2, 2))) == []
        poking = OrientedBox(Vec3(1.2, 0.5, 0.5), Vec3(1, 1, 1), 0.0)
        diags = check_bounds(scene_of_boxes([poking], GridSpec(1.0, 2, 2)))
        assert len(diags) == 1
        assert diags[0].id == "box_0"

    def test_rotation_can_violate(self):
        # inside the 2x2 floor at yaw 0, the 45-degree diagonal pokes out
        straight = OrientedBox(Vec3(0.5, 0.5, 0.5), Vec3(1.5, 1.5, 1), 0.0)
        tilted = OrientedBox(Vec3(0.5, 0.5, 0.5), Vec3(1.5, 1.5, 1), math.pi / 4)
        grid = GridSpec(1.0, 2, 2)
        assert check_bounds(scene_of_boxes([straight], grid)) == []
        diags = check_bounds(scene_of_boxes([tilted], grid))
        assert len(diags) == 1
        cx, cy = diags[0].corner
        assert max(abs(cx - 0.5), abs(cy - 0.5)) == pytest.approx(1.5 * math.sqrt(2) / 2)

    def test_boundary_corner_allowed(self):
        box = OrientedBox(Vec3(1.0, 0.5, 0.5), Vec3(1.0, 1.0, 1), 0.0)  # touches x=1.5
        assert check_bounds(scene_of_boxes([box], GridSpec(1.0, 2, 2))) == []

    def test_explicit_floor_extent(self):
        box = OrientedBox(Vec3(0.5, 0.5, 0.5), Vec3(1, 1, 1), 0.0)
        scene = scene_of_boxes([box], GridSpec(1.0, 2, 2))
        assert check_bounds(scene, floor_extent_m=(2.0, 2.0)) == []
        assert len(check_bounds(scene, floor_extent_m=(1.0, 1.0))) == 1

    def test_program_floor_extent(self, vocab):
        # the sofa reaches y=1.95, past the 2x2 grid's edge at 1.5 but inside
        # the 3x3 m floor; every caller of the validator gets the program's floor=
        body = "main:\n0 0\n0 sofa@90\n"
        scene = compile_scene(parse_llmsli("llmsli grid=1m dims=2x2 floor=3x3m\n" + body), vocab)
        assert check_bounds(scene) == []
        assert validate(scene).passed
        gridded = compile_scene(parse_llmsli("llmsli grid=1m dims=2x2\n" + body), vocab)
        assert [d.id for d in check_bounds(gridded)] == ["sofa_0"]
        assert validate(gridded).passed is False

    def test_building_envelope(self, vocab):
        ring = (
            "llmslb grid=1m dims=4x4\nmain:\n"
            "w w w w\nw 0 0 w\nw 0 0 w\nw w w w\n"
        )
        building = compile_building(parse_llmslb(ring), vocab)
        inside = scene_of_boxes(
            [OrientedBox(Vec3(1.5, 1.5, 0.4), Vec3(1, 1, 0.8), 0.0)], GridSpec(1.0, 4, 4)
        )
        outside = scene_of_boxes(
            [OrientedBox(Vec3(5.0, 1.5, 0.4), Vec3(1, 1, 0.8), 0.0)], GridSpec(1.0, 4, 4)
        )
        assert check_bounds(inside, building=building) == []
        assert len(check_bounds(outside, building=building)) == 1

    def test_structural_not_checked(self, vocab):
        ring = "llmslb grid=1m dims=4x4\nmain:\nw w w w\nw 0 0 w\nw 0 0 w\nw w w w\n"
        scene = compile_building(parse_llmslb(ring), vocab)
        assert check_bounds(scene, building=scene) == []


def _one_box_scene(vocab, cell_size, rows, cols, at, key, yaw, size, floor):
    cells = [[None] * cols for _ in range(rows)]
    cells[at[0]][at[1]] = CellSpec(key, yaw, size_override=size)
    main = GridBlock("main", tuple(tuple(row) for row in cells))
    program = SceneProgram(cell_size_m=cell_size, blocks={"main": main}, floor_extent_m=floor)
    return compile_scene(program, vocab)


@st.composite
def one_box_scenes(draw):
    """A single object anywhere on a small grid, edge cells included, at any
    integer yaw; sizes and floors are often whole or half cells, so boxes
    land exactly on an edge."""
    g = draw(st.sampled_from([0.5, 0.75, 1.0, 1.5]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    at = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
    key = draw(st.sampled_from(["sofa", "side_table", "ceiling_fan", "bookshelf"]))
    yaw = draw(st.one_of(st.sampled_from([0, 90, 180, 270, -90, 450]), st.integers(-720, 720)))
    length = st.one_of(
        st.integers(1, 8).map(lambda k: k * g / 2.0),
        st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False),
    )
    size = draw(st.none() | st.tuples(length, length, st.floats(0.1, 2.0)))
    extra = st.one_of(
        st.just(0.0), st.integers(1, 4).map(lambda k: k * g / 2.0), st.floats(0.0, 3.0)
    )
    floor = draw(
        st.none() | st.tuples(extra, extra).map(lambda e: (rows * g + e[0], cols * g + e[1]))
    )
    return g, rows, cols, at, key, yaw, size, floor


class TestFloorRectEquivalence:
    """The sampler's in-search test and check_bounds give one answer."""

    @staticmethod
    def _sampler_says_inside(vocab, g, rows, cols, at, key, yaw, size, floor):
        grid = GridSpec(g, rows, cols)
        box = compile_placement(CellSpec(key, yaw, size_override=size), at, grid, vocab)
        return footprint_on_floor(footprint(box), floor_rect(grid, floor))

    @settings(max_examples=400, deadline=None)
    @given(one_box_scenes())
    def test_matches_check_bounds(self, vocab, case):
        scene = _one_box_scene(vocab, *case)
        assert self._sampler_says_inside(vocab, *case) == (not check_bounds(scene))

    @pytest.mark.parametrize(
        "case, inside",
        [
            # a 1 m box on every corner cell of a 3x3 grid touches two edges
            ((1.0, 3, 3, (0, 0), "sofa", 0, (1.0, 1.0, 1.0), None), True),
            ((1.0, 3, 3, (2, 2), "sofa", 90, (1.0, 1.0, 1.0), None), True),
            ((1.0, 3, 3, (2, 0), "sofa", 270, (1.0, 1.0, 1.0), None), True),
            # a whole-floor box at yaw 90 touches all four edges
            ((1.0, 3, 3, (1, 1), "side_table", 90, (3.0, 3.0, 1.0), None), True),
            ((1.0, 3, 3, (1, 1), "side_table", 0, (3.0001, 3.0, 1.0), None), False),
            # a larger floor= takes a box the grid would reject
            ((1.0, 2, 2, (1, 1), "sofa", 90, None, None), False),
            ((1.0, 2, 2, (1, 1), "sofa", 90, None, (3.0, 3.0)), True),
            ((0.5, 4, 4, (3, 3), "ceiling_fan", 0, None, (2.5, 2.5)), True),
            ((0.5, 4, 4, (3, 3), "ceiling_fan", 0, None, None), False),
        ],
    )
    def test_edges(self, vocab, case, inside):
        scene = _one_box_scene(vocab, *case)
        assert self._sampler_says_inside(vocab, *case) is inside
        assert (not check_bounds(scene)) is inside


class TestValidate:
    def test_passed_iff_no_findings(self, vocab):
        clean = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n0 0 0\n"),
            vocab,
        )
        report = validate(clean)
        assert report.passed
        assert report.collisions == ()
        assert report.cr_obj_percent == 0.0

    def test_failing_scene(self, vocab):
        src = "llmsli grid=1m dims=4x4\nmain:\n0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n"
        report = validate(compile_scene(parse_llmsli(src), vocab))
        assert not report.passed
        assert report.cr_obj_percent == 100.0
        assert len(report.collisions) == 1

    def test_warnings_carried(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nvase\n"), vocab
        )
        report = validate(scene)
        assert report.warnings == scene.warnings
        assert report.passed  # warnings alone do not fail a scene

    def test_custom_eps(self, vocab):
        a = OrientedBox(Vec3(0, 0, 0.5), Vec3(1, 1, 1), 0.0)
        b = OrientedBox(Vec3(0.999, 0, 0.5), Vec3(1, 1, 1), 0.0)
        scene = scene_of_boxes([a, b])
        assert validate(scene).passed is False
        assert validate(scene, ValidatorConfig(eps=0.01)).passed is True

    @pytest.mark.parametrize("field", ["eps", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_tolerance_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ValidatorConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_check_collisions_rejects_bad_eps(self, value):
        # far-apart pairs are pruned before the SAT, which is sound only for eps >= 0
        with pytest.raises(ConfigError):
            check_collisions(scene_of_boxes([]), value)

    def test_floor_extent_config(self, vocab):
        box = OrientedBox(Vec3(0.5, 0.5, 0.5), Vec3(1, 1, 1), 0.0)
        scene = scene_of_boxes([box], GridSpec(1.0, 2, 2))
        assert validate(scene, ValidatorConfig(floor_extent_m=(1.0, 1.0))).passed is False

    def test_report_text(self, vocab):
        src = "llmsli grid=1m dims=4x4\nmain:\n0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n"
        report = validate(compile_scene(parse_llmsli(src), vocab))
        text = report_text(report)
        assert "overlaps with" in text
        assert "FAIL" in text or "fail" in text
