import pytest
from hypothesis import given, settings, strategies as st

from spatialgrammar.errors import (
    CycleError,
    DanglingBlockError,
    ParseError,
    RaggedGridError,
)
from spatialgrammar.llmsli import (
    CellSpec,
    Face,
    GridBlock,
    SceneProgram,
    parse_llmsli,
    print_llmsli,
    program_hash,
    program_stats,
    tokens_with_cols,
)

from conftest import make_room

HUGE = "9" * 400  # a decimal literal that float() turns into inf


class TestHeader:
    def test_meter_grid(self):
        p = parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa\n")
        assert p.cell_size_m == 1.0

    def test_centimeter_grid(self):
        p = parse_llmsli("llmsli grid=50cm dims=1x1\nmain:\nsofa\n")
        assert p.cell_size_m == 0.5

    def test_fractional_grid(self):
        p = parse_llmsli("llmsli grid=0.75m dims=1x1\nmain:\nsofa\n")
        assert p.cell_size_m == 0.75

    def test_floor_extent(self):
        p = parse_llmsli("llmsli grid=1m dims=1x2 floor=6x4.5m\nmain:\nsofa 0\n")
        assert p.floor_extent_m == (6.0, 4.5)

    def test_grid_required(self):
        with pytest.raises(ParseError, match="grid"):
            parse_llmsli("llmsli dims=1x1\nmain:\nsofa\n")

    def test_unknown_header_key(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmsli grid=1m speed=9\nmain:\nsofa\n")

    @pytest.mark.parametrize(
        "token",
        [f"grid={HUGE}m", f"grid={HUGE}cm", f"floor={HUGE}x1m", f"floor=1x{HUGE}m"],
        ids=["grid-m", "grid-cm", "floor-x", "floor-y"],
    )
    def test_overflowing_number_rejected(self, token):
        key = token.partition("=")[0]
        head = "llmsli grid=1m" if key == "floor" else "llmsli"
        with pytest.raises(ParseError, match="too large") as info:
            parse_llmsli(f"{head} {token}\nmain:\nsofa\n")
        assert (info.value.line, info.value.col) == (1, len(head) + 2)

    def test_wrong_language_keyword(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmslq grid=1m\nmain:\nsofa\n")


class TestDims:
    def test_matching_dims_accepted(self):
        parse_llmsli("llmsli grid=1m dims=2x3\nmain:\n0 0 0\n0 sofa 0\n")

    def test_mismatched_dims_rejected(self):
        with pytest.raises(RaggedGridError):
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n")

    def test_dims_not_authoritative_after_parse(self):
        # declared dims are only a cross-check; the rows define the grid
        src = "llmsli grid=1m dims=2x2\nmain:\nsofa 0\n0 0\n"
        assert parse_llmsli(src).main.n_rows == 2

    def test_ragged_rows(self):
        with pytest.raises(RaggedGridError):
            parse_llmsli("llmsli grid=1m\nmain:\n0 0 0\n0 sofa\n")


class TestCellTokens:
    def _cell(self, token: str) -> CellSpec:
        p = parse_llmsli(f"llmsli grid=1m dims=1x1\nmain:\n{token}\n")
        return p.main.rows[0][0]

    def test_code(self):
        assert self._cell("3").key == 3

    def test_identifier(self):
        assert self._cell("sofa").key == "sofa"

    def test_yaw(self):
        assert self._cell("sofa@90").yaw_deg == 90

    def test_negative_yaw_wraps(self):
        assert self._cell("sofa@-90").yaw_deg == 270

    def test_large_yaw_wraps(self):
        assert self._cell("sofa@450").yaw_deg == 90

    def test_size_override(self):
        assert self._cell("sofa[1.2x0.8x0.5]").size_override == (1.2, 0.8, 0.5)

    def test_size_override_unicode_separator(self):
        assert self._cell("sofa[1.2×0.8×0.5]").size_override == (1.2, 0.8, 0.5)

    def test_all_annotations(self):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\n2@180[1.1x0.6x0.4](A_on_front)\n"
            "sublayout A dims=1x1:\ntv\n"
        )
        cell = parse_llmsli(src).main.rows[0][0]
        assert cell.key == 2
        assert cell.yaw_deg == 180
        assert cell.size_override == (1.1, 0.6, 0.4)
        assert cell.sublayout_refs == (("A", Face.FRONT),)

    def test_ref_name_containing_on(self):
        # the face splits at the last _on_
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa(Books_on_top_on_left)\n"
            "sublayout Books_on_top dims=1x1:\ntv\n"
        )
        cell = parse_llmsli(src).main.rows[0][0]
        assert cell.sublayout_refs == (("Books_on_top", Face.LEFT),)

    def test_duplicate_face_rejected(self):
        with pytest.raises(ParseError):
            parse_llmsli(
                "llmsli grid=1m dims=1x1\nmain:\nsofa(A_on_top)(B_on_top)\n"
                "sublayout A dims=1x1:\ntv\nsublayout B dims=1x1:\ntv\n"
            )

    def test_bad_face(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa(A_on_sideways)\n")

    def test_empty_cell_cannot_be_annotated(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\n0@90\n")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa!!\n")

    def test_zero_dimension_override(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa[0x1x1]\n")

    @pytest.mark.parametrize(
        "size, col", [(f"{HUGE}x1x1", 6), (f"1x1x{HUGE}", 10)], ids=["length", "height"]
    )
    def test_overflowing_size_rejected(self, size, col):
        with pytest.raises(ParseError, match="size is too large") as info:
            parse_llmsli(f"llmsli grid=1m dims=1x1\nmain:\nsofa[{size}]\n")
        assert (info.value.line, info.value.col) == (3, col)


class TestBlockGraph:
    def test_missing_main(self):
        with pytest.raises(ParseError, match="main"):
            parse_llmsli("llmsli grid=1m\nsublayout A dims=1x1:\nsofa\n")

    def test_dangling_reference(self):
        with pytest.raises(DanglingBlockError):
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa(Ghost_on_top)\n")

    def test_cycle(self):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa(A_on_top)\n"
            "sublayout A dims=1x1:\ntv(B_on_top)\n"
            "sublayout B dims=1x1:\ntv(A_on_top)\n"
        )
        with pytest.raises(CycleError):
            parse_llmsli(src)

    def test_self_cycle(self):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa(A_on_top)\n"
            "sublayout A dims=1x1:\ntv(A_on_top)\n"
        )
        with pytest.raises(CycleError):
            parse_llmsli(src)

    def test_reserved_block_name(self):
        with pytest.raises(ParseError):
            parse_llmsli(
                "llmsli grid=1m dims=1x1\nmain:\nsofa\nsublayout main dims=1x1:\ntv\n"
            )

    def test_referencing_root_rejected(self):
        with pytest.raises(ParseError):
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa(main_on_top)\n")

    def test_depth_limit(self):
        # a 9-deep chain exceeds the nesting cap of 8
        lines = ["llmsli grid=1m dims=1x1", "main:", "sofa(B1_on_top)"]
        for k in range(1, 9):
            lines.append(f"sublayout B{k} dims=1x1:")
            lines.append(f"tv(B{k + 1}_on_top)" if k < 8 else "tv(B9_on_top)")
        lines.append("sublayout B9 dims=1x1:")
        lines.append("tv")
        with pytest.raises(CycleError, match="depth"):
            parse_llmsli("\n".join(lines) + "\n")

    def test_depth_exactly_eight_ok(self):
        lines = ["llmsli grid=1m dims=1x1", "main:", "sofa(B1_on_top)"]
        for k in range(1, 8):
            lines.append(f"sublayout B{k} dims=1x1:")
            lines.append(f"tv(B{k + 1}_on_top)" if k < 7 else "tv")
        parse_llmsli("\n".join(lines) + "\n")


class TestComments:
    def test_comment_lines_skipped(self):
        src = "# layout v2\nllmsli grid=1m dims=1x1\n# the root\nmain:\nsofa\n"
        assert parse_llmsli(src).main.rows[0][0].key == "sofa"


class TestCanonicalPrint:
    def test_round_trip_fixed(self):
        src = (
            "llmsli grid=1m dims=2x2\nmain:\nsofa 0\n0 tv_stand(A_on_top)\n"
            "sublayout A dims=1x1:\ntv\n"
        )
        p = parse_llmsli(src)
        assert print_llmsli(p) == src

    def test_yaw_zero_omitted(self):
        p = parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa@0\n")
        assert "@" not in print_llmsli(p)

    def test_refs_sorted_by_face(self):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa(B_on_left)(A_on_top)\n"
            "sublayout A dims=1x1:\ntv\nsublayout B dims=1x1:\ntv\n"
        )
        out = print_llmsli(parse_llmsli(src))
        assert "(A_on_top)(B_on_left)" in out

    def test_print_order_breadth_first(self):
        src = (
            "llmsli grid=1m dims=1x2\nmain:\nsofa(Z_on_top) desk(A_on_top)\n"
            "sublayout A dims=1x1:\ntv\n"
            "sublayout Z dims=1x1:\ntv(Inner_on_top)\n"
            "sublayout Inner dims=1x1:\ntv\n"
        )
        out = print_llmsli(parse_llmsli(src))
        order = [ln.split()[1] for ln in out.splitlines() if ln.startswith("sublayout")]
        assert order == ["Z", "A", "Inner"]

    def test_unreferenced_blocks_kept(self):
        src = (
            "llmsli grid=1m dims=1x1\nmain:\nsofa\n"
            "sublayout Spare dims=1x1:\ntv\n"
        )
        assert "Spare" in print_llmsli(parse_llmsli(src))


class TestStats:
    def test_frozen_counts(self):
        src = (
            "llmsli grid=1m dims=2x2\nmain:\nsofa 0\n0 tv_stand(A_on_top)\n"
            "sublayout A dims=1x1:\ntv\n"
        )
        stats = program_stats(parse_llmsli(src))
        assert stats == {
            "cells": 5,
            "occupied_cells": 3,
            "sublayout_count": 1,
            "max_depth": 1,
            "token_count": 12,
            "char_count": 83,
        }

    def test_hash_is_hex_and_stable(self):
        p = parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa\n")
        h = program_hash(print_llmsli(p))
        assert len(h) == 64
        assert h == program_hash(print_llmsli(p))


# ---------------------------------------------------------------------------
# property tests

_IDENTS = ("sofa", "tv", "coffee_table", "bed", "desk", "vase")
_FACES = tuple(Face)


@st.composite
def cell_specs(draw, allow_refs: tuple[str, ...] = ()):
    key = draw(st.one_of(st.sampled_from(_IDENTS), st.integers(min_value=1, max_value=50)))
    yaw = draw(st.sampled_from((0, 45, 90, 135, 180, 225, 270, 315)))
    size = None
    if draw(st.booleans()):
        dims = draw(
            st.tuples(*[st.floats(min_value=0.05, max_value=4.0, allow_nan=False)] * 3)
        )
        size = dims
    refs = ()
    if allow_refs and draw(st.integers(min_value=0, max_value=3)) == 0:
        name = draw(st.sampled_from(allow_refs))
        face = draw(st.sampled_from(_FACES))
        refs = ((name, face),)
    return CellSpec(key=key, yaw_deg=yaw, size_override=size, sublayout_refs=refs)


@st.composite
def scene_programs(draw):
    child_names = ("Alpha", "Beta")
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    rows = []
    referenced = set()
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            if draw(st.integers(min_value=0, max_value=2)) == 0:
                cell = draw(cell_specs(allow_refs=child_names))
                referenced.update(name for name, _ in cell.sublayout_refs)
                row.append(cell)
            else:
                row.append(None)
        rows.append(tuple(row))
    blocks = {"main": GridBlock(name="main", rows=tuple(rows))}
    for name in child_names:
        if name in referenced or draw(st.booleans()):
            cell = draw(cell_specs())
            blocks[name] = GridBlock(name=name, rows=((cell,),))
    g = draw(st.sampled_from((0.5, 0.75, 1.0, 2.0)))
    return SceneProgram(cell_size_m=g, blocks=blocks)


@given(scene_programs())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(p):
    text = print_llmsli(p)
    again = parse_llmsli(text)
    assert again == p
    assert print_llmsli(again) == text


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_fuzz_only_parse_errors(text):
    try:
        parse_llmsli(text)
    except ParseError:
        pass


# every code point for which str.isspace() holds, beyond Latin-1 too
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _tokens_by_char(raw: str) -> list[tuple[str, int]]:
    """Reference tokenizer: a character-at-a-time str.isspace scan."""
    toks = []
    i, n = 0, len(raw)
    while i < n:
        if raw[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not raw[i].isspace():
            i += 1
        toks.append((raw[start:i], start + 1))
    return toks


def test_split_and_isspace_agree_on_every_code_point():
    chars = [chr(i) for i in range(0x110000)]
    assert {c for c in chars if not c.split()} == set(_WHITESPACE)
    assert {c for c in chars if c.isspace()} == set(_WHITESPACE)


@given(st.text(st.sampled_from(_WHITESPACE + "0sofa_@-90[1x2×3](T_on_top)é中")))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_tokens_match_a_character_scan(raw):
    assert tokens_with_cols(raw) == _tokens_by_char(raw)
