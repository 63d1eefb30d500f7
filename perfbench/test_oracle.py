"""Hand-made cases for the benchmark's oracle.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

VOCAB = {
    "sofa": ("sofa", "floor_furniture", (1.9, 0.9, 0.8)),
    "chair": ("chair", "floor_furniture", (0.45, 0.45, 0.9)),
    "box": ("box", "floor_furniture", (1.0, 1.0, 1.0)),
    "fan": ("fan", "ceiling_mounted", (1.1, 1.1, 0.4)),
    7: ("chair", "floor_furniture", (0.45, 0.45, 0.9)),
}


def room(rows: list[str], header: str = "llmsli grid=1m") -> oracle.Room:
    text = "\n".join([header, "main:", *rows, "sublayout Top dims=1x1:", "chair"]) + "\n"
    return oracle.read_room(text, VOCAB)


def test_face_contact_is_not_a_collision():
    r = room(["box box", "0 box"])
    assert oracle.colliding_pairs(r) == set()


def test_two_sofas_a_tenth_apart_do_not_collide():
    side_by_side = room(["sofa sofa"])  # 1 m between centres, 0.9 m wide
    end_to_end = room(["sofa", "0", "sofa"])  # 2 m between centres, 1.9 m long
    assert oracle.colliding_pairs(side_by_side) == set()
    assert oracle.colliding_pairs(end_to_end) == set()


def test_rotated_overlapping_pair_collides():
    r = room(["sofa@45", "sofa"])
    assert oracle.colliding_pairs(r) == {frozenset({(0, 0), (1, 0)})}


def test_rotation_turns_a_near_miss_into_a_collision():
    assert oracle.colliding_pairs(room(["sofa sofa"])) == set()
    assert oracle.colliding_pairs(room(["sofa@90 sofa"])) == {frozenset({(0, 0), (0, 1)})}


def test_ceiling_item_clears_floor_furniture():
    assert oracle.colliding_pairs(room(["sofa(Top_on_top)", "fan"])) == set()


def test_codes_size_overrides_and_floor_containment():
    r = room(["7 0 0", "0 box[0.5x0.5x0.5] 0", "0 0 sofa@90"], "llmsli grid=1m dims=3x3")
    assert [x.identifier for x in r.roots] == ["chair", "box", "sofa"]
    assert r.roots[1].hx == 0.25
    assert oracle.outside_floor(r) == [(2, 2)]  # 1.9 m long across a 1 m cell
    assert oracle.outside_floor(room(["0 sofa@90 0"], "llmsli grid=1m floor=1x3m")) == []
    assert oracle.outside_floor(room(["sofa@90 0 0"], "llmsli grid=1m floor=1x3m")) == [(0, 0)]


def test_reach_filter_finds_every_brute_force_pair():
    rng = random.Random(3)

    def token() -> str:
        if rng.random() < 0.4:
            return "0"
        return f"{rng.choice(['sofa', 'chair', 'box', 'fan'])}@{rng.choice([0, 30, 90, 135])}"

    for _ in range(20):
        r = room([" ".join(token() for _ in range(8)) for _ in range(8)], "llmsli grid=0.5m")
        brute = {
            frozenset((a.cell, b.cell))
            for k, a in enumerate(r.roots) for b in r.roots[k + 1:] if oracle.overlaps(a, b)
        }
        assert oracle.colliding_pairs(r) == brute


def test_corners_follow_the_yaw():
    (root,) = room(["sofa@90"]).roots
    xs = sorted(round(x, 9) for x, _ in root.corners())
    assert math.isclose(xs[0], -0.45) and math.isclose(xs[-1], 0.45)
