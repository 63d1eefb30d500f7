"""Release gate: eleven numbered end-to-end checks.

Each test prints one PASS or FAIL line so a plain pytest transcript doubles
as the acceptance record.  The expensive checks carry explicit wall-clock
budgets; everything is seeded, so a red run reproduces.
"""

from __future__ import annotations

import math
import random
import re
import time
from contextlib import contextmanager

import numpy as np

from spatialgrammar.compiler import (
    CompiledScene,
    Placement,
    Provenance,
    compile_source,
    compose_frames,
)
from spatialgrammar.datagen import (
    extract_sft_pairs,
    generate_sft_dataset,
    jsonl_bytes,
)
from spatialgrammar.drfr import AtomicCheck, CheckKind, Checklist, evaluate_drfr
from spatialgrammar.errorchain import classify_failure, generate_dpo_pairs
from spatialgrammar.errors import ParseError, SpatialGrammarError
from spatialgrammar.export import canonical_json, export_scene, scene_to_dict
from spatialgrammar.geometry import GridSpec, OrientedBox, Vec3, grid_dimensions
from spatialgrammar.llmslb import parse_llmslb, print_llmslb
from spatialgrammar.llmsli import Face, parse_llmsli, print_llmsli
from spatialgrammar.templates import load_template
from spatialgrammar.validator import collision_rate, obb_intersect, validate
from spatialgrammar.vocab import Category, load_vocabulary

VOCAB = load_vocabulary()
FLOOR_IDS = sorted(
    e.identifier for e in VOCAB if e.category is Category.FLOOR_FURNITURE
)
SURFACE_IDS = sorted(
    e.identifier for e in VOCAB if e.category is Category.SURFACE_ITEM
)

NESTED = (
    "llmsli grid=1m dims=2x2\nmain:\n"
    "0 desk@90[1.4x0.7x0.75](A_on_top)\n"
    "sofa@45 0\n"
    "sublayout A dims=1x2:\n"
    "monitor@30 mug\n"
)
RING = (
    "llmslb grid=1m dims=4x4\nmain:\n"
    "w w d w\nw 0 0 w\nw 0 0 c\nw w w w\n"
)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {num:02d} [{label}]: {verdict} ({time.monotonic() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# 1. grid cell to world mapping


def test_criterion_01_cell_to_world_mapping():
    with criterion(1, "cell (i,j) lands at (i*g, j*g) with its bottom on the floor"):
        rng = random.Random(4101)
        t0 = time.monotonic()
        for _ in range(10_000):
            g = rng.choice([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            i, j = rng.randrange(rows), rng.randrange(cols)
            token = rng.choice(FLOOR_IDS) + rng.choice(["", "@90", "@45", "@210"])
            lines = []
            for r in range(rows):
                row = ["0"] * cols
                if r == i:
                    row[j] = token
                lines.append(" ".join(row))
            src = f"llmsli grid={g}m dims={rows}x{cols}\nmain:\n" + "\n".join(lines) + "\n"
            _, scene = compile_source(src, VOCAB)
            (p,) = scene.placements
            assert abs(p.box.center.x - i * g) < 1e-9
            assert abs(p.box.center.y - j * g) < 1e-9
            assert p.box.bottom_z == 0.0
        assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. frame composition against a homogeneous-matrix oracle


def _hframe(center: tuple[float, float, float], yaw: float) -> np.ndarray:
    m = np.eye(4)
    c, s = math.cos(yaw), math.sin(yaw)
    m[0, 0], m[0, 1] = c, -s
    m[1, 0], m[1, 1] = s, c
    m[:3, 3] = center
    return m


def test_criterion_02_frame_composition_matches_matrix_product():
    with criterion(2, "iterated pose composition equals the 4x4 matrix product"):
        rng = random.Random(4102)
        for _ in range(1_000):
            box = OrientedBox(
                center=Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2)),
                size=Vec3(1.0, 1.0, 1.0),
                yaw=rng.uniform(0.0, 2.0 * math.pi),
            )
            m = _hframe(box.center.as_tuple(), box.yaw)
            for _ in range(rng.randint(1, 4)):
                child = OrientedBox(
                    center=Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1)),
                    size=Vec3(0.5, 0.5, 0.5),
                    yaw=rng.uniform(0.0, 2.0 * math.pi),
                )
                box = compose_frames(box, child)
                m = m @ _hframe(child.center.as_tuple(), child.yaw)
            assert abs(box.center.x - m[0, 3]) < 1e-9
            assert abs(box.center.y - m[1, 3]) < 1e-9
            assert abs(box.center.z - m[2, 3]) < 1e-9
            want = math.atan2(m[1, 0], m[0, 0])
            d = (box.yaw - want) % (2.0 * math.pi)
            assert min(d, 2.0 * math.pi - d) < 1e-9

        # identity parent must pass the child pose through bit for bit
        identity = OrientedBox(center=Vec3(0.0, 0.0, 0.0), size=Vec3(1, 1, 1), yaw=0.0)
        child = OrientedBox(center=Vec3(0.731, -2.25, 0.4), size=Vec3(0.3, 0.2, 0.1), yaw=2.5)
        out = compose_frames(identity, child)
        assert out.center == child.center
        assert out.yaw == child.yaw


# ---------------------------------------------------------------------------
# 3. exact resting contact for stacked children


def _random_stacked_source(rng: random.Random) -> str:
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    i, j = rng.randrange(rows), rng.randrange(cols)
    parent = rng.choice(["desk", "dining_table", "sideboard", "dresser", "tv_stand"])
    yaw = rng.choice(["", "@90", "@30", "@180"])
    lines = []
    for r in range(rows):
        row = ["0"] * cols
        if r == i:
            row[j] = f"{parent}{yaw}(A_on_top)"
        lines.append(" ".join(row))
    a_cols = rng.randint(1, 2)
    deep = rng.random() < 0.5
    cells = []
    for k in range(a_cols):
        ident = rng.choice(SURFACE_IDS)
        cells.append(f"{ident}(B_on_top)" if deep and k == 0 else ident)
    src = (
        f"llmsli grid=1m dims={rows}x{cols}\nmain:\n"
        + "\n".join(lines)
        + f"\nsublayout A dims=1x{a_cols}:\n"
        + " ".join(cells)
        + "\n"
    )
    if deep:
        src += "sublayout B dims=1x1:\n" + rng.choice(["mug", "vase", "chess_pawn"]) + "\n"
    return src


def test_criterion_03_stacked_children_rest_exactly():
    with criterion(3, "every top-face child bottom coincides with its parent top"):
        rng = random.Random(4103)
        checked = 0
        for _ in range(1_000):
            _, scene = compile_source(_random_stacked_source(rng), VOCAB)
            for p in scene.placements:
                if p.source.face is Face.TOP:
                    parent = scene.by_id(p.parent)
                    assert abs(p.box.bottom_z - parent.box.top_z) < 1e-9
                    checked += 1
        assert checked >= 1_000


# ---------------------------------------------------------------------------
# 4. separating-axis verdicts against Monte-Carlo point containment


def _corners2(box: OrientedBox) -> np.ndarray:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hx, hy = box.size.x / 2.0, box.size.y / 2.0
    pts = []
    for dx, dy in ((hx, hy), (hx, -hy), (-hx, hy), (-hx, -hy)):
        pts.append((box.center.x + c * dx - s * dy, box.center.y + s * dx + c * dy))
    return np.array(pts)


def _sat_margin(a: OrientedBox, b: OrientedBox) -> float:
    """Signed margin: positive is penetration depth, negative is separation."""
    best = min(a.top_z, b.top_z) - max(a.bottom_z, b.bottom_z)
    ca, cb = _corners2(a), _corners2(b)
    for yaw in (a.yaw, a.yaw + math.pi / 2, b.yaw, b.yaw + math.pi / 2):
        axis = np.array([math.cos(yaw), math.sin(yaw)])
        pa, pb = ca @ axis, cb @ axis
        overlap = min(pa.max(), pb.max()) - max(pa.min(), pb.min())
        best = min(best, overlap)
    return float(best)


def _aabb(box: OrientedBox) -> tuple[np.ndarray, np.ndarray]:
    c, s = abs(math.cos(box.yaw)), abs(math.sin(box.yaw))
    hx = box.size.x / 2.0 * c + box.size.y / 2.0 * s
    hy = box.size.x / 2.0 * s + box.size.y / 2.0 * c
    center = np.array(box.center.as_tuple())
    half = np.array([hx, hy, box.size.z / 2.0])
    return center - half, center + half


def _inside(pts: np.ndarray, box: OrientedBox) -> np.ndarray:
    d = pts - np.array(box.center.as_tuple())
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    h = np.array(box.size.as_tuple()) / 2.0
    return (np.abs(lx) <= h[0]) & (np.abs(ly) <= h[1]) & (np.abs(d[:, 2]) <= h[2])


def _mc_witness(a: OrientedBox, b: OrientedBox, n: int, gen: np.random.Generator) -> bool:
    alo, ahi = _aabb(a)
    blo, bhi = _aabb(b)
    lo, hi = np.maximum(alo, blo), np.minimum(ahi, bhi)
    if np.any(hi <= lo):
        return False
    pts = gen.uniform(lo, hi, size=(n, 3))
    return bool(np.any(_inside(pts, a) & _inside(pts, b)))


def test_criterion_04_sat_agrees_with_monte_carlo():
    with criterion(4, "SAT verdicts match point-containment sampling on 1,000 pairs"):
        rng = random.Random(4104)
        gen = np.random.default_rng(4104)

        def make_box(cx: float, cy: float) -> OrientedBox:
            return OrientedBox(
                center=Vec3(cx, cy, rng.uniform(0.2, 1.0)),
                size=Vec3(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)),
                yaw=math.radians(rng.randrange(0, 360, 15)),
            )

        pairs = []
        while len(pairs) < 1_000:
            a = make_box(0.0, 0.0)
            spread = 0.8 if rng.random() < 0.55 else 2.2
            b = make_box(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            m = _sat_margin(a, b)
            if abs(m) <= 1e-3:
                continue
            pairs.append((a, b, m))

        hits = sum(1 for _, _, m in pairs if m > 0)
        assert 150 <= hits <= 850  # both verdicts well represented

        disagreements = 0
        for a, b, m in pairs:
            lib_hit = obb_intersect(a, b) is not None
            if m > 0:
                # escalate the sample budget for thin overlaps
                n = 30_000 if m > 0.05 else (500_000 if m > 0.005 else 3_000_000)
                if not (lib_hit and _mc_witness(a, b, n, gen)):
                    disagreements += 1
            else:
                if lib_hit or _mc_witness(a, b, 30_000, gen):
                    disagreements += 1
        assert disagreements == 0


# ---------------------------------------------------------------------------
# 5. determinism of compilation and dataset generation


def test_criterion_05_determinism():
    with criterion(5, "recompiles and reruns are byte-identical"):
        for src in (NESTED, RING):
            first = export_scene(compile_source(src, VOCAB)[1], "json")
            second = export_scene(compile_source(src, VOCAB)[1], "json")
            assert first == second
        tpl = load_template("living_room", VOCAB)
        runs = [
            jsonl_bytes(extract_sft_pairs(generate_sft_dataset(tpl, 40, 11, VOCAB, workers=w)))
            for w in (0, 0, 2)
        ]
        assert runs[0] == runs[1]
        assert runs[0] == runs[2]


# ---------------------------------------------------------------------------
# 6. the generation filter: emitted samples valid, rejected variants invalid


def test_criterion_06_generation_filter():
    with criterion(6, "1,000 emitted samples all validate; rejected variants all fail"):
        t0 = time.monotonic()
        tpl = load_template("living_room", VOCAB)
        samples = generate_sft_dataset(tpl, 1_000, 2026, VOCAB)
        assert len(samples) == 1_000
        for s in samples:
            _, scene = compile_source(s.code, VOCAB)
            assert validate(scene).passed
        pairs = generate_dpo_pairs(samples, 2027, VOCAB, tpl)
        assert len(pairs) >= 900
        for p in pairs:
            try:
                _, scene = compile_source(p.rejected, VOCAB)
            except SpatialGrammarError:
                continue  # refuses to parse or compile: fails the gate
            assert not validate(scene).passed
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 7. grid dimensioning table for a 6 m x 6 m floor


def test_criterion_07_grid_dimension_table():
    with criterion(7, "6 m floor divides into the published cell-count matrix"):
        table = {0.5: (12, 12), 0.75: (8, 8), 1.0: (6, 6), 1.5: (4, 4), 2.0: (3, 3)}
        for cell, want in table.items():
            assert grid_dimensions((6.0, 6.0), cell) == want


# ---------------------------------------------------------------------------
# 8. corpus scale and throughput


def test_criterion_08_corpus_scale():
    with criterion(8, "2,800 samples plus 9,000 preference pairs inside ten minutes"):
        t0 = time.monotonic()
        tpl = load_template("living_room", VOCAB)
        samples = generate_sft_dataset(tpl, 2_800, 31415, VOCAB)
        assert len(samples) == 2_800
        for s in samples:
            _, scene = compile_source(s.code, VOCAB)
            assert validate(scene).passed
        pairs = generate_dpo_pairs(samples, 27182, VOCAB, tpl, n=9_000)
        assert len(pairs) == 9_000
        assert all(classify_failure(p.rejected, VOCAB) != "none" for p in pairs)
        assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# 9. metric formulas on hand-built inputs


def _scene_of(boxes: list[OrientedBox]) -> CompiledScene:
    placements = tuple(
        Placement(
            id=f"box_{k}",
            identifier="crate",
            category=Category.FLOOR_FURNITURE,
            box=box,
            parent=None,
            depth=0,
            source=Provenance("main", k, 0, 0),
        )
        for k, box in enumerate(boxes)
    )
    return CompiledScene(grid=GridSpec(1.0, 4, 4), placements=placements)


def test_criterion_09_metric_formulas():
    with criterion(9, "collision rate and requirement ratio match hand computation"):
        colliding = _scene_of(
            [
                OrientedBox(Vec3(0.0, 0.0, 0.5), Vec3(1, 1, 1), 0.0),
                OrientedBox(Vec3(0.5, 0.0, 0.5), Vec3(1, 1, 1), 0.0),
                OrientedBox(Vec3(3.0, 3.0, 0.5), Vec3(1, 1, 1), 0.0),
            ]
        )
        assert collision_rate(colliding) == 66.7
        clean = _scene_of(
            [
                OrientedBox(Vec3(0.0, 0.0, 0.5), Vec3(1, 1, 1), 0.0),
                OrientedBox(Vec3(2.0, 0.0, 0.5), Vec3(1, 1, 1), 0.0),
            ]
        )
        assert collision_rate(clean) == 0.0

        _, scene = compile_source(
            "llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n0 0 0\n", VOCAB
        )
        checklist = Checklist(
            checks=(
                AtomicCheck(kind=CheckKind.EXIST, subject="sofa"),
                AtomicCheck(kind=CheckKind.EXIST, subject="piano"),
                AtomicCheck(
                    kind=CheckKind.ATTRIBUTE_SIZE,
                    subject="sofa",
                    params=(("min_size", (1.0, 0.5, 0.5)),),
                ),
                AtomicCheck(
                    kind=CheckKind.ATTRIBUTE_SIZE,
                    subject="sofa",
                    params=(("category", "floor_furniture"),),
                ),
            )
        )
        assert evaluate_drfr(scene, checklist).ratio == 0.75


# ---------------------------------------------------------------------------
# 10. diagnostic wording and validator purity


def test_criterion_10_diagnostics_contract():
    with criterion(10, "collision wording is stable and validation never mutates"):
        src = (
            "llmsli grid=1m dims=4x4\nmain:\n"
            "0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n"
        )
        _, scene = compile_source(src, VOCAB)
        before = canonical_json(scene_to_dict(scene))
        report = validate(scene)
        messages = [c.message for c in report.collisions]
        assert messages == ["Coffee table overlaps with sofa at position (1,1)"]
        for msg in messages:
            assert re.fullmatch(r".+ overlaps with .+ at position \(\d+,\d+\)", msg)
        assert canonical_json(scene_to_dict(scene)) == before
        # a second pass sees the identical scene and says the identical thing
        assert validate(scene).to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# 11. parser robustness: fuzzing plus large-scale round trips


def _random_scene_source(rng: random.Random) -> str:
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    blocks = ["A", "B", "Stack"][: rng.randint(0, 2)]
    faces = ["top", "front", "back", "left", "right"]

    def token(pool: list[str], allow_ref: bool) -> str:
        if rng.random() < 0.45:
            return "0"
        tok = rng.choice(pool)
        if rng.random() < 0.4:
            tok += f"@{rng.choice([0, 15, 45, 90, 180, 270, 345])}"
        if rng.random() < 0.25:
            dims = [round(rng.uniform(0.1, 2.0), 2) for _ in range(3)]
            tok += "[{}x{}x{}]".format(*dims)
        if allow_ref and blocks and rng.random() < 0.35:
            tok += f"({rng.choice(blocks)}_on_{rng.choice(faces)})"
        return tok

    g = rng.choice(["1m", "0.5m", "75cm", "1.25m", "2m"])
    src = f"llmsli grid={g} dims={rows}x{cols}\nmain:\n"
    src += "\n".join(" ".join(token(FLOOR_IDS, True) for _ in range(cols)) for _ in range(rows))
    src += "\n"
    for name in blocks:
        br, bc = rng.randint(1, 2), rng.randint(1, 2)
        body = "\n".join(
            " ".join(token(SURFACE_IDS, False) for _ in range(bc)) for _ in range(br)
        )
        src += f"sublayout {name} dims={br}x{bc}:\n{body}\n"
    return src


def _random_building_source(rng: random.Random) -> str:
    rows, cols = rng.randint(3, 6), rng.randint(3, 6)
    grid = [["0"] * cols for _ in range(rows)]
    for r in range(rows):
        grid[r][0] = grid[r][cols - 1] = "w"
    for c in range(cols):
        grid[0][c] = grid[rows - 1][c] = "w"
    for _ in range(rng.randint(0, 3)):
        # openings only on straight wall cells so both neighbours stay walls
        if rng.random() < 0.5:
            r, c = rng.choice([0, rows - 1]), rng.randint(1, cols - 2)
        else:
            r, c = rng.randint(1, rows - 2), rng.choice([0, cols - 1])
        grid[r][c] = rng.choice(["d", "c"])
    header = f"llmslb grid={rng.choice(['1m', '0.5m', '50cm'])} dims={rows}x{cols}"
    if rng.random() < 0.3:
        header += f" height={rng.choice(['2.4m', '3m'])}"
    if rng.random() < 0.3:
        header += f" thickness={rng.choice(['0.1m', '0.3m'])}"
    if rng.random() < 0.2:
        header += f" door={rng.choice(['1x2m', '0.8x1.9m'])}"
    return header + "\nmain:\n" + "\n".join(" ".join(r) for r in grid) + "\n"


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        pos = rng.randrange(len(chars) + 1 if kind == 2 else len(chars))
        if kind == 0 and chars:
            chars[pos] = chr(rng.randrange(32, 127))
        elif kind == 1 and chars:
            del chars[pos]
        else:
            chars.insert(pos, chr(rng.randrange(1, 256)))
    return "".join(chars)


def test_criterion_11_parser_robustness():
    with criterion(11, "100k fuzz inputs never crash; 10k programs round trip"):
        rng = random.Random(4111)
        seeds = [_random_scene_source(rng) for _ in range(20)]
        seeds += [_random_building_source(rng) for _ in range(10)]
        outcomes = {"ok": 0, "rejected": 0}
        for k in range(100_000):
            if k % 10 < 6:
                n = rng.randint(0, 150)
                s = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
            else:
                s = _mutate(rng, rng.choice(seeds))
            for parse in (parse_llmsli, parse_llmslb):
                try:
                    parse(s)
                    outcomes["ok"] += 1
                except ParseError:
                    outcomes["rejected"] += 1
                # anything else propagates and fails the test
        assert outcomes["rejected"] > 100_000  # fuzz input mostly gets refused

        for _ in range(8_000):
            p = parse_llmsli(_random_scene_source(rng))
            assert parse_llmsli(print_llmsli(p)) == p
        for _ in range(2_000):
            b = parse_llmslb(_random_building_source(rng))
            assert parse_llmslb(print_llmslb(b)) == b
