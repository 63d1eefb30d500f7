import pytest
from hypothesis import given, settings, strategies as st

from spatialgrammar.compiler import _exterior_cells
from spatialgrammar.errors import (
    CycleError,
    DanglingBlockError,
    OrphanOpeningError,
    ParseError,
    RaggedGridError,
)
from spatialgrammar.llmslb import (
    DEFAULT_WALL_HEIGHT_M,
    DEFAULT_WALL_THICKNESS_M,
    BuildingProgram,
    ClosureDiagnostic,
    Run,
    StructCell,
    StructSymbol,
    WallFace,
    check_closure,
    parse_llmslb,
    print_llmslb,
    wall_runs,
)
from spatialgrammar.llmsli import program_stats, split_program, tokens_with_cols

HUGE = "9" * 400  # a decimal literal that float() turns into inf

RING = (
    "llmslb grid=1m dims=5x5\n"
    "main:\n"
    "w w w w w\n"
    "w 0 0 0 w\n"
    "w 0 0 0 w\n"
    "w 0 0 0 w\n"
    "w w w w w\n"
)


class TestHeader:
    def test_defaults(self):
        p = parse_llmslb(RING)
        assert p.wall_height_m == DEFAULT_WALL_HEIGHT_M == 2.6
        assert p.wall_thickness_m == DEFAULT_WALL_THICKNESS_M == 0.2
        assert (p.door.width_m, p.door.height_m, p.door.sill_m) == (0.9, 2.0, 0.0)
        assert (p.window.width_m, p.window.height_m) == (1.2, 1.2)
        assert p.window.sill_m == 0.9

    def test_overrides(self):
        src = (
            "llmslb grid=50cm dims=2x2 height=3m thickness=0.3m "
            "door=1x2.1m window=0.8x1m sill=1.1m\n"
            "main:\nw w\nw w\n"
        )
        p = parse_llmslb(src)
        assert p.cell_size_m == 0.5
        assert p.wall_height_m == 3.0
        assert p.wall_thickness_m == 0.3
        assert (p.door.width_m, p.door.height_m) == (1.0, 2.1)
        assert (p.window.width_m, p.window.height_m, p.window.sill_m) == (0.8, 1.0, 1.1)

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_llmslb("llmslb grid=1m roof=flat\nmain:\nw w\n")

    def test_dims_mismatch(self):
        with pytest.raises(RaggedGridError):
            parse_llmslb("llmslb grid=1m dims=3x2\nmain:\nw w\nw w\n")

    @pytest.mark.parametrize(
        "token",
        [f"grid={HUGE}m", f"height={HUGE}m", f"thickness={HUGE}m", f"sill={HUGE}m",
         f"door={HUGE}x2m", f"window=1x{HUGE}m"],
        ids=lambda token: token.partition("=")[0],
    )
    def test_overflowing_number_rejected(self, token):
        head = "llmslb" if token.startswith("grid=") else "llmslb grid=1m"
        with pytest.raises(ParseError, match="too large") as info:
            parse_llmslb(f"{head} {token}\nmain:\nw w\n")
        assert (info.value.line, info.value.col) == (1, len(head) + 2)


class TestSymbols:
    def test_cells(self):
        p = parse_llmslb("llmslb grid=1m dims=1x3\nmain:\nw d c\n")
        symbols = [c.symbol for _, _, c in p.structural_cells()]
        assert symbols == [StructSymbol.WALL, StructSymbol.DOOR, StructSymbol.WINDOW]

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_llmslb("llmslb grid=1m dims=1x2\nmain:\nw x\n")

    def test_furniture_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_llmslb("llmslb grid=1m dims=1x2\nmain:\nw sofa\n")

    def test_yaw_rejected(self):
        with pytest.raises(ParseError):
            parse_llmslb("llmslb grid=1m dims=1x2\nmain:\nw@90 w\n")

    def test_size_rejected(self):
        with pytest.raises(ParseError):
            parse_llmslb("llmslb grid=1m dims=1x2\nmain:\nw[1x1x1] w\n")

    def test_mount_on_opening_rejected(self):
        with pytest.raises(ParseError):
            parse_llmslb(
                "llmslb grid=1m dims=1x3\nmain:\nw d(A_on_inner) w\n"
                "sublayout A dims=1x1:\ntv\n"
            )

    def test_indoor_face_on_wall_rejected(self):
        with pytest.raises(ParseError):
            parse_llmslb(
                "llmslb grid=1m dims=1x2\nmain:\nw(A_on_top) w\n"
                "sublayout A dims=1x1:\ntv\n"
            )

    def test_mount_faces(self):
        src = (
            "llmslb grid=1m dims=1x3\nmain:\nw(A_on_inner)(B_on_outer) w w\n"
            "sublayout A dims=1x1:\ntv\nsublayout B dims=1x1:\ntv\n"
        )
        p = parse_llmslb(src)
        cell = p.cells[0][0]
        assert cell.sublayout_refs == (("A", WallFace.INNER), ("B", WallFace.OUTER))


class TestBlocks:
    def test_dangling_mount(self):
        with pytest.raises(DanglingBlockError):
            parse_llmslb("llmslb grid=1m dims=1x2\nmain:\nw(Ghost_on_inner) w\n")

    def test_ceiling_block(self):
        src = "llmslb grid=1m dims=2x2 ceiling=Lights\nmain:\nw w\nw w\nsublayout Lights dims=1x1:\npendant_light\n"
        assert parse_llmslb(src).ceiling_block == "Lights"

    def test_dangling_ceiling(self):
        with pytest.raises(DanglingBlockError):
            parse_llmslb("llmslb grid=1m dims=2x2 ceiling=Nope\nmain:\nw w\nw w\n")

    def test_depth_limit(self):
        with pytest.raises(CycleError) as info:
            parse_llmslb(_chained("llmslb grid=1m dims=1x2\nmain:\nw(A1_on_inner) w\n", "A", 9))
        assert info.value.message == "nesting depth 9 exceeds the maximum of 8"

    def test_depth_limit_names_deepest_chain(self):
        src = _chained("llmslb grid=1m dims=1x2 ceiling=B1\nmain:\nw(A1_on_inner) w\n", "A", 9)
        with pytest.raises(CycleError, match="nesting depth 10 exceeds"):
            parse_llmslb(_chained(src, "B", 10))

    def test_depth_exactly_eight_ok(self):
        src = _chained("llmslb grid=1m dims=1x2 ceiling=B1\nmain:\nw(A1_on_inner) w\n", "A", 8)
        assert program_stats(parse_llmslb(_chained(src, "B", 8)))["max_depth"] == 8

    def test_cycle_in_unreferenced_blocks(self):
        src = (
            "llmslb grid=1m dims=1x2\nmain:\nw w\n"
            "sublayout A dims=1x1:\ntv(B_on_top)\nsublayout B dims=1x1:\ntv(A_on_top)\n"
        )
        with pytest.raises(CycleError, match="cycle: A -> B -> A"):
            parse_llmslb(src)


def _chained(src: str, prefix: str, n: int) -> str:
    """Append blocks PREFIX1..PREFIXn, each holding the next on its top face."""
    for k in range(1, n + 1):
        cell = f"tv({prefix}{k + 1}_on_top)" if k < n else "tv"
        src += f"sublayout {prefix}{k} dims=1x1:\n{cell}\n"
    return src


class TestWallRuns:
    def test_ring_has_four_runs(self):
        runs = wall_runs(parse_llmslb(RING))
        assert len(runs) == 4
        assert [r.axis for r in runs] == [0, 0, 1, 1]
        by_start = [r.cells[0] for r in runs]
        assert by_start == [(0, 0), (0, 4), (0, 0), (4, 0)]
        assert all(len(r.cells) == 5 for r in runs)

    def test_corners_in_two_runs(self):
        runs = wall_runs(parse_llmslb(RING))
        containing = [r for r in runs if (0, 0) in r.cells]
        assert len(containing) == 2
        assert {r.axis for r in containing} == {0, 1}

    def test_isolated_cell_is_single_run(self):
        p = parse_llmslb("llmslb grid=1m dims=3x3\nmain:\n0 0 0\n0 w 0\n0 0 0\n")
        runs = wall_runs(p)
        assert len(runs) == 1
        assert runs[0].cells == ((1, 1),)

    def test_openings_continue_runs(self):
        p = parse_llmslb("llmslb grid=1m dims=1x5\nmain:\nw d w c w\n")
        runs = wall_runs(p)
        assert len(runs) == 1
        assert runs[0].axis == 1
        assert len(runs[0].cells) == 5

    def test_l_shape(self):
        p = parse_llmslb("llmslb grid=1m dims=3x3\nmain:\nw 0 0\nw 0 0\nw w w\n")
        runs = wall_runs(p)
        assert [(r.axis, len(r.cells)) for r in runs] == [(0, 3), (1, 3)]


class TestClosure:
    def test_closed_ring_clean(self):
        assert check_closure(parse_llmslb(RING)) == []

    def test_single_gap_named(self):
        src = RING.replace("w w w w w\n", "w w 0 w w\n", 1)
        diags = check_closure(parse_llmslb(src))
        assert len(diags) == 1
        assert diags[0].endpoints == ((0, 1), (0, 3))
        assert diags[0].gap == (0, 2)
        assert (
            diags[0].message
            == "wall component is not a closed loop: open ends at (0,1), (0,3); "
            "possible gap at (0,2)"
        )

    def test_straight_segment_two_ends_no_gap(self):
        p = parse_llmslb("llmslb grid=1m dims=1x4\nmain:\nw w w w\n")
        diags = check_closure(p)
        assert len(diags) == 1
        assert diags[0].endpoints == ((0, 0), (0, 3))
        assert diags[0].gap is None

    def test_two_components(self):
        src = (
            "llmslb grid=1m dims=3x5\nmain:\n"
            "w w 0 w w\n"
            "0 0 0 0 0\n"
            "w 0 0 0 w\n"
        )
        assert len(check_closure(parse_llmslb(src))) == 4


class TestOrphans:
    def test_lone_door(self):
        with pytest.raises(OrphanOpeningError, match=r"door at cell \(1,1\)"):
            parse_llmslb("llmslb grid=1m dims=3x3\nmain:\n0 0 0\n0 d 0\n0 0 0\n")

    def test_lone_window(self):
        with pytest.raises(OrphanOpeningError, match="window"):
            parse_llmslb("llmslb grid=1m dims=1x1\nmain:\nc\n")

    def test_door_pair_without_wall(self):
        with pytest.raises(OrphanOpeningError):
            parse_llmslb("llmslb grid=1m dims=1x2\nmain:\nd d\n")

    def test_orphan_position(self):
        with pytest.raises(OrphanOpeningError) as info:
            parse_llmslb("llmslb grid=1m dims=2x3\nmain:\nw w 0\n\n0  0   c\n")
        assert (info.value.line, info.value.col) == (5, 8)

    def test_opening_reached_through_run(self):
        # c touches only d, but their run contains a wall
        parse_llmslb("llmslb grid=1m dims=1x3\nmain:\nw d c\n")


# ---------------------------------------------------------------------------
# reference shell analysis: the two-scan run finder, the two hand-written
# flood fills and the orphan check with its adjacency fast path, kept as the
# parent implementation that the shared scanner and flood must reproduce


def ref_wall_runs(p: BuildingProgram) -> list[Run]:
    occupied = {(i, j) for i, j, _ in p.structural_cells()}
    n_rows = len(p.cells)
    n_cols = len(p.cells[0]) if p.cells else 0
    runs: list[Run] = []
    covered: set[tuple[int, int]] = set()

    for j in range(n_cols):  # runs along x: scan each column
        i = 0
        while i < n_rows:
            if (i, j) in occupied:
                start = i
                while i < n_rows and (i, j) in occupied:
                    i += 1
                if i - start >= 2:
                    cells = tuple((k, j) for k in range(start, i))
                    runs.append(Run(axis=0, cells=cells))
                    covered.update(cells)
            else:
                i += 1
    for i in range(n_rows):  # runs along y: scan each row
        j = 0
        while j < n_cols:
            if (i, j) in occupied:
                start = j
                while j < n_cols and (i, j) in occupied:
                    j += 1
                if j - start >= 2:
                    cells = tuple((i, k) for k in range(start, j))
                    runs.append(Run(axis=1, cells=cells))
                    covered.update(cells)
            else:
                j += 1
    for cell in sorted(occupied - covered):
        runs.append(Run(axis=0, cells=(cell,)))
    runs.sort(key=lambda r: (r.axis, r.cells[0]))
    return runs


def ref_check_closure(p: BuildingProgram) -> list[ClosureDiagnostic]:
    occupied = {(i, j) for i, j, _ in p.structural_cells()}

    def neighbors(c: tuple[int, int]) -> list[tuple[int, int]]:
        i, j = c
        return [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]

    seen: set[tuple[int, int]] = set()
    diagnostics: list[ClosureDiagnostic] = []
    for start in sorted(occupied):
        if start in seen:
            continue
        component = []
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            component.append(cur)
            for nb in neighbors(cur):
                if nb in occupied and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        component.sort()
        endpoints = tuple(
            c for c in component if sum(1 for nb in neighbors(c) if nb in occupied) < 2
        )
        if not endpoints:
            continue
        gap = None
        if len(endpoints) == 2:
            shared = [
                c
                for c in neighbors(endpoints[0])
                if c in neighbors(endpoints[1]) and c not in occupied
            ]
            if shared:
                gap = sorted(shared)[0]
        message = "wall component is not a closed loop: open ends at " + ", ".join(
            f"({i},{j})" for i, j in endpoints
        )
        if gap is not None:
            message += f"; possible gap at ({gap[0]},{gap[1]})"
        diagnostics.append(
            ClosureDiagnostic(
                component=tuple(component), endpoints=endpoints, gap=gap, message=message
            )
        )
    return diagnostics


def ref_exterior_cells(b: BuildingProgram) -> set[tuple[int, int]]:
    n_rows, n_cols = len(b.cells), len(b.cells[0])
    blocked = {(i, j) for i, j, _ in b.structural_cells()}
    outside: set[tuple[int, int]] = set()
    stack = []
    for i in range(n_rows):
        for j in (0, n_cols - 1):
            stack.append((i, j))
    for j in range(n_cols):
        for i in (0, n_rows - 1):
            stack.append((i, j))
    while stack:
        i, j = stack.pop()
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            continue
        if (i, j) in blocked or (i, j) in outside:
            continue
        outside.add((i, j))
        stack.extend(((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)))
    return outside


def ref_check_orphan_openings(p: BuildingProgram, source: str) -> None:
    def symbol_at(i: int, j: int) -> StructSymbol | None:
        if 0 <= i < len(p.cells) and 0 <= j < len(p.cells[0]):
            cell = p.cells[i][j]
            return cell.symbol if cell is not None else None
        return None

    main_sec = split_program(source, "llmslb")[1][0]
    run_of: dict[tuple[int, int], list[Run]] = {}
    for run in ref_wall_runs(p):
        for cell in run.cells:
            run_of.setdefault(cell, []).append(run)
    for i, j, cell in p.structural_cells():
        if cell.symbol is StructSymbol.WALL:
            continue
        if any(
            symbol_at(i + di, j + dj) is StructSymbol.WALL
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
        ):
            continue
        if any(
            any(p.cells[a][b].symbol is StructSymbol.WALL for a, b in run.cells)
            for run in run_of.get((i, j), ())
        ):
            continue
        line, raw = main_sec.rows[i]
        raise OrphanOpeningError(
            f"{'door' if cell.symbol is StructSymbol.DOOR else 'window'} at cell ({i},{j}) "
            "has no adjacent wall",
            line=line,
            col=tokens_with_cols(raw)[j][1],
        )


_STRUCT = {"w": StructSymbol.WALL, "d": StructSymbol.DOOR, "c": StructSymbol.WINDOW}


@st.composite
def shell_grids(draw) -> list[list[str]]:
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    row = st.lists(st.sampled_from("wdc0"), min_size=n_cols, max_size=n_cols)
    return [draw(row) for _ in range(n_rows)]


def _outcome(fn, *args) -> tuple:
    try:
        return ("ok", fn(*args))
    except ParseError as exc:
        return (type(exc), exc.message, exc.line, exc.col)


class TestShellAnalysisEquivalence:
    @given(shell_grids())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_reference(self, grid):
        source = f"llmslb grid=1m dims={len(grid)}x{len(grid[0])}\nmain:\n" + "".join(
            " ".join(row) + "\n" for row in grid
        )
        p = BuildingProgram(
            cell_size_m=1.0,
            cells=tuple(
                tuple(StructCell(_STRUCT[s]) if s in _STRUCT else None for s in row)
                for row in grid
            ),
        )
        assert wall_runs(p) == ref_wall_runs(p)
        assert check_closure(p) == ref_check_closure(p)
        assert _exterior_cells(p) == ref_exterior_cells(p)
        want = _outcome(ref_check_orphan_openings, p, source)
        if want == ("ok", None):
            want = ("ok", p)
        assert _outcome(parse_llmslb, source) == want


class TestCanonicalPrint:
    def test_round_trip(self):
        src = (
            "llmslb grid=1m dims=3x3 ceiling=Top\nmain:\n"
            "w w w\nw(AC_on_inner) 0 d\nw w w\n"
            "sublayout AC dims=1x1:\nair_conditioner\n"
            "sublayout Top dims=1x1:\npendant_light\n"
        )
        p = parse_llmslb(src)
        text = print_llmslb(p)
        assert parse_llmslb(text) == p
        assert print_llmslb(parse_llmslb(text)) == text

    def test_block_order(self):
        # wall references in cell order, then the ceiling block, then what
        # those reference breadth-first, then unreferenced blocks
        src = (
            "llmslb grid=1m dims=1x2 ceiling=Top\nmain:\nw(B_on_outer) w(A_on_inner)(C_on_outer)\n"
            "sublayout Spare dims=1x1:\ntv\nsublayout Top dims=1x1:\npendant_light(D_on_bottom)\n"
            "sublayout D dims=1x1:\ntv\nsublayout C dims=1x1:\ntv\n"
            "sublayout A dims=1x1:\ntv(E_on_top)\nsublayout E dims=1x1:\ntv\n"
            "sublayout B dims=1x1:\ntv\n"
        )
        text = print_llmslb(parse_llmslb(src))
        names = [line.split()[1] for line in text.splitlines() if line.startswith("sublayout")]
        assert names == ["B", "A", "C", "Top", "E", "D", "Spare"]

    def test_header_explicit(self):
        text = print_llmslb(parse_llmslb(RING))
        head = text.splitlines()[0]
        assert "height=2.6m" in head
        assert "thickness=0.2m" in head
        assert "door=0.9x2m" in head
        assert "window=1.2x1.2m" in head
        assert "sill=0.9m" in head


class TestStats:
    def test_building_stats(self):
        src = (
            "llmslb grid=1m dims=3x3\nmain:\n"
            "w w w\nw(AC_on_inner) 0 w\nw w w\n"
            "sublayout AC dims=1x1:\nair_conditioner\n"
        )
        stats = program_stats(parse_llmslb(src))
        assert stats["cells"] == 10
        assert stats["occupied_cells"] == 9
        assert stats["sublayout_count"] == 1
        assert stats["max_depth"] == 1
        assert stats["token_count"] > 0
        assert stats["char_count"] > 0

    def test_grid_property(self):
        p = parse_llmslb(RING)
        assert isinstance(p, BuildingProgram)
        assert (p.grid.rows, p.grid.cols, p.grid.cell_size_m) == (5, 5, 1.0)
