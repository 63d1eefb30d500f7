import math

import pytest
from hypothesis import given, settings, strategies as st

from spatialgrammar.compiler import CompiledScene, Placement, Provenance
from spatialgrammar.errors import UnknownRelation
from spatialgrammar.geometry import GridSpec, OrientedBox, Vec3
from spatialgrammar.relations import (
    RELATIONS,
    beside,
    behind,
    check_relation,
    facing,
    in_front_of,
    left_of,
    on_top,
    resolve,
    right_of,
)
from spatialgrammar.vocab import Category


def at(x, y, yaw=0.0, z=0.4, size=(0.8, 0.8, 0.8)):
    return OrientedBox(Vec3(x, y, z), Vec3(*size), yaw)


def placed(box, pid):
    return Placement(
        id=pid,
        identifier=pid.rsplit("_", 1)[0],
        category=Category.FLOOR_FURNITURE,
        box=box,
        parent=None,
        depth=0,
        source=Provenance("main", 0, 0, 0),
    )


G = 1.0


class TestFacing:
    def test_dead_ahead(self):
        a = at(0, 0, yaw=0.0)  # facing +x
        b = at(2, 0)
        assert facing(a, b, G)

    def test_outside_cone(self):
        a = at(0, 0, yaw=0.0)
        b = at(0, 2)  # 90 degrees off
        assert not facing(a, b, G)

    def test_cone_edge_inclusive(self):
        a = at(0, 0, yaw=0.0)
        b = at(1, 1)  # exactly 45 degrees
        assert facing(a, b, G)

    def test_just_past_edge(self):
        a = at(0, 0, yaw=0.0)
        b = at(1, 1.001)
        assert not facing(a, b, G)

    def test_rotated_observer(self):
        a = at(0, 0, yaw=math.pi / 2)  # facing +y
        assert facing(a, at(0, 3), G)
        assert not facing(a, at(3, 0), G)

    def test_coincident_centers(self):
        assert not facing(at(0, 0), at(0, 0), G)

    def test_not_symmetric(self):
        a = at(0, 0, yaw=0.0)
        b = at(2, 0, yaw=0.0)  # also faces +x, away from a
        assert facing(a, b, G)
        assert not facing(b, a, G)


class TestFrontBack:
    def test_in_front_uses_object_frame(self):
        b = at(0, 0, yaw=0.0)  # faces +x
        assert in_front_of(at(2, 0), b, G)
        assert not in_front_of(at(-2, 0), b, G)

    def test_behind_is_mirror(self):
        b = at(0, 0, yaw=0.0)
        assert behind(at(-2, 0), b, G)
        assert not behind(at(2, 0), b, G)

    def test_rotated_object(self):
        b = at(0, 0, yaw=math.pi)  # faces -x
        assert in_front_of(at(-2, 0), b, G)
        assert behind(at(2, 0), b, G)

    def test_subject_distance_unbounded(self):
        b = at(0, 0, yaw=0.0)
        assert in_front_of(at(50, 0), b, G)


class TestLateral:
    def test_left_is_plus_y_at_zero_yaw(self):
        b = at(0, 0, yaw=0.0)
        assert left_of(at(0, 1), b, G)
        assert not left_of(at(0, -1), b, G)

    def test_right_is_minus_y(self):
        b = at(0, 0, yaw=0.0)
        assert right_of(at(0, -1), b, G)
        assert not right_of(at(0, 1), b, G)

    def test_distance_cap_two_cells(self):
        b = at(0, 0, yaw=0.0)
        assert left_of(at(0, 1.99), b, G)
        assert not left_of(at(0, 2.01), b, G)

    def test_cap_scales_with_grid(self):
        b = at(0, 0, yaw=0.0)
        assert not left_of(at(0, 1.2), b, 0.5)  # cap is 1.0 m on a 0.5 m grid
        assert left_of(at(0, 1.2), b, 1.0)

    def test_rotated_object_frame(self):
        b = at(0, 0, yaw=math.pi / 2)  # faces +y, so its left is -x
        assert left_of(at(-1, 0), b, G)
        assert right_of(at(1, 0), b, G)

    def test_on_the_axis_is_neither(self):
        b = at(0, 0, yaw=0.0)
        ahead = at(1, 0)
        assert not left_of(ahead, b, G)
        assert not right_of(ahead, b, G)

    def test_beside_union(self):
        b = at(0, 0, yaw=0.0)
        assert beside(at(0, 1), b, G)
        assert beside(at(0, -1), b, G)
        assert not beside(at(0, 5), b, G)


class TestOnTop:
    def test_resting(self):
        table = at(0, 0, z=0.35, size=(1.2, 0.6, 0.7))
        vase = at(0.2, 0.1, z=0.85, size=(0.1, 0.1, 0.3))
        assert on_top(vase, table, G)

    def test_hovering_fails(self):
        table = at(0, 0, z=0.35, size=(1.2, 0.6, 0.7))
        vase = at(0, 0, z=1.0, size=(0.1, 0.1, 0.3))
        assert not on_top(vase, table, G)

    def test_center_outside_footprint(self):
        table = at(0, 0, z=0.35, size=(1.2, 0.6, 0.7))
        vase = at(1.0, 0, z=0.85, size=(0.1, 0.1, 0.3))
        assert not on_top(vase, table, G)

    def test_rotated_footprint(self):
        table = at(0, 0, z=0.35, size=(2.0, 0.4, 0.7), yaw=math.pi / 2)
        # after rotation the long axis lies along y
        on_long = at(0, 0.8, z=0.85, size=(0.1, 0.1, 0.3))
        off_side = at(0.8, 0, z=0.85, size=(0.1, 0.1, 0.3))
        assert on_top(on_long, table, G)
        assert not on_top(off_side, table, G)


class TestTranslationInvariance:
    @given(
        dx=st.floats(-20, 20),
        dy=st.floats(-20, 20),
        rel=st.sampled_from(sorted(RELATIONS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_shift_both(self, dx, dy, rel):
        a0 = at(0.7, -0.3, yaw=0.8, z=0.75 + 0.15, size=(0.3, 0.3, 0.3))
        b0 = at(0.0, 0.0, yaw=0.3, z=0.45, size=(2.0, 1.2, 0.9))
        a1 = at(0.7 + dx, -0.3 + dy, yaw=0.8, z=0.9, size=(0.3, 0.3, 0.3))
        b1 = at(dx, dy, yaw=0.3, z=0.45, size=(2.0, 1.2, 0.9))
        fn = RELATIONS[rel]
        assert fn(a0, b0, G) == fn(a1, b1, G)


def tiny_scene():
    sofa = placed(at(0, 0), "sofa_0")
    table = placed(at(2, 0), "coffee_table_0")
    return CompiledScene(grid=GridSpec(1.0, 4, 4), placements=(sofa, table))


class TestCheckRelation:
    def test_by_id(self):
        assert check_relation(tiny_scene(), "facing", "sofa_0", "coffee_table_0")

    def test_by_identifier(self):
        assert check_relation(tiny_scene(), "facing", "sofa", "coffee_table")

    def test_missing_participant(self):
        assert not check_relation(tiny_scene(), "facing", "sofa", "ghost")

    def test_self_relation_false(self):
        assert not check_relation(tiny_scene(), "beside", "sofa", "sofa_0")

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            check_relation(tiny_scene(), "inside", "sofa", "coffee_table")

    def test_resolve_prefers_exact_id(self):
        s = tiny_scene()
        assert resolve(s, "sofa_0").id == "sofa_0"
        assert resolve(s, "sofa").id == "sofa_0"
        assert resolve(s, "nothing") is None

    def test_registry_complete(self):
        assert sorted(RELATIONS) == [
            "behind",
            "beside",
            "facing",
            "in_front_of",
            "left_of",
            "on_top",
            "right_of",
        ]
