"""Seeded large rooms for the check_large workload.

Sparse rooms put one small object per 1 m cell, at most 0.85 m across and
turned by multiples of 90 degrees, so no two footprints meet and every
footprint stays inside the floor: they must pass.  Dense rooms pack large
furniture onto a 0.5 m grid, so each object overlaps several neighbours and
the validator reports thousands of colliding pairs.
"""

from __future__ import annotations

import math
import random

SPARSE_KEYS = ("chair", "stool", "plant", "side_table", "floor_lamp", "nightstand", "armchair")
DENSE_KEYS = (
    "sofa", "coffee_table", "bed", "desk", "dining_table", "wardrobe",
    "bookshelf", "armchair", "chair", "tv_stand", "sideboard", "bench",
)
YAWS = (0, 90, 180, 270)


def _room(rng: random.Random, n: int, g: str, fill: float, keys, tops: bool) -> str:
    side = math.ceil(math.sqrt(n / fill))
    cells = rng.sample(range(side * side), n)
    grid = [["0"] * side for _ in range(side)]
    for k in cells:
        key = rng.choice(keys)
        yaw = rng.choice(YAWS)
        token = key if yaw == 0 else f"{key}@{yaw}"
        if tops and key == "side_table":
            token += "(Top_on_top)"
        grid[k // side][k % side] = token
    lines = [f"llmsli grid={g} dims={side}x{side}", "main:"]
    lines.extend(" ".join(row) for row in grid)
    if tops:
        lines += ["sublayout Top dims=1x1:", "vase"]
    return "\n".join(lines) + "\n"


def sparse_room(rng: random.Random, n: int) -> str:
    return _room(rng, n, "1m", 0.7, SPARSE_KEYS, tops=True)


def dense_room(rng: random.Random, n: int) -> str:
    return _room(rng, n, "0.5m", 0.6, DENSE_KEYS, tops=False)
