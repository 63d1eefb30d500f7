import dataclasses
import enum
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spatialgrammar.compiler import CompiledScene, compile_building, compile_scene, compile_source
from spatialgrammar.datagen import generate_sft_dataset
from spatialgrammar.errors import SchemaError, SpatialGrammarError, UnsupportedFormat
from spatialgrammar.export import (
    FORMATS,
    canonical_json,
    export_scene,
    load_scene_json,
    scene_to_dict,
)
from spatialgrammar.geometry import GridSpec
from spatialgrammar.llmsli import parse_llmsli
from spatialgrammar.llmslb import parse_llmslb
from spatialgrammar.templates import load_template
from spatialgrammar.validator import ValidatorConfig, validate
from spatialgrammar.vocab import Category

from conftest import make_room

NESTED = (
    "llmsli grid=1m dims=2x2\n"
    "main:\n"
    "0 desk@90(Stack_on_top)\n"
    "sofa@45 0\n"
    "sublayout Stack dims=1x1:\n"
    "monitor@30\n"
)

RING = (
    "llmslb grid=1m dims=5x5 ceiling=Top\n"
    "main:\n"
    "w w d w w\n"
    "w 0 0 0 w\n"
    "w(AC_on_inner) 0 0 0 c\n"
    "w 0 0 0 w\n"
    "w w w w w\n"
    "sublayout AC dims=1x1:\nair_conditioner\n"
    "sublayout Top dims=1x1:\npendant_light\n"
)

STREAM = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "stream.json"


def golden_sources(name: str, vocab) -> list[str]:
    """The benchmark's committed stream, or the gen-data SFT programs of one template."""
    if name == "stream":
        return [p["text"] for p in json.loads(STREAM.read_text(encoding="utf-8"))["programs"]]
    return [s.code for s in generate_sft_dataset(load_template(name, vocab), 60, 2024, vocab)]


def compiled(sources: list[str], vocab):
    """(program, scene) for every source that compiles."""
    for text in sources:
        try:
            yield compile_source(text, vocab)
        except SpatialGrammarError:
            continue


def reference_canonical_json(value) -> str:
    """The recursive writer that canonical_json replaced: one json.dumps per key and string."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        s = f"{value:.6f}"
        return "0.000000" if s == "-0.000000" else s
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(
            json.dumps(k) + ":" + reference_canonical_json(v) for k, v in items
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_canonical_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class Kind(str, enum.Enum):
    DOOR = "door"
    ODD = "caf\u00e9\u2028\U0001f600\x00"


class Level(enum.IntEnum):
    TOP = 3


# every code point but lone surrogates, with controls, separators and escapes made likely
TEXT = st.text(st.one_of(st.characters(),
                         st.sampled_from("\x00\x1f\x7f\u2028\u2029\"\\\U0001f600")))
LEAVES = st.one_of(
    TEXT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, -1e-9, 1e-7, -5e-7, 1e300]),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Kind) + list(Level)),
)


@st.composite
def rows(draw, values):
    """A list of dicts with one key set, each built in its own key order."""
    keys = draw(st.lists(TEXT, max_size=5, unique=True))
    return [{k: draw(values) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(0, 4)))]


JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        rows(children),
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_canonical_json_matches_the_recursive_writer(value):
    assert canonical_json(value) == reference_canonical_json(value)


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_float_width(self):
        assert canonical_json(0.5) == "0.500000"
        assert canonical_json(1 / 3) == "0.333333"

    def test_negative_zero(self):
        assert canonical_json(-0.0) == "0.000000"
        assert canonical_json(-1e-9) == "0.000000"

    def test_scalars(self):
        assert canonical_json(True) == "true"
        assert canonical_json(None) == "null"
        assert canonical_json(7) == "7"
        assert canonical_json("a b") == '"a b"'

    def test_unicode_kept(self):
        assert canonical_json("café") == '"café"'

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    @pytest.mark.parametrize("value", [float("nan"), [1e400], {"a": -math.inf}, (1.0, math.inf)])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError):
            canonical_json(value)

    @pytest.mark.parametrize("value", [{1: 2}, {True: 1}, {None: 1}, [{"a": 1}, {2: 1}]])
    def test_non_string_key_refused(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)

    def test_keys_escaped_values_raw(self):
        assert canonical_json({"é": "é\u2028"}) == '{"\\u00e9":"é\u2028"}'


class TestJsonExport:
    def test_byte_stable(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        assert export_scene(scene, "json") == export_scene(scene, "json")

    def test_schema_shape(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        doc = json.loads(export_scene(scene, "json"))
        assert set(doc) == {"grid", "placements", "structural", "openings"}
        assert doc["grid"] == {"cell_size": 1.0, "rows": 2, "cols": 2}
        row = doc["placements"][0]
        assert set(row) == {
            "id",
            "identifier",
            "center",
            "size",
            "yaw_rad",
            "parent",
            "depth",
            "cell",
        }
        assert row["cell"] == [0, 1]

    def test_empty_scene(self):
        scene = CompiledScene(grid=GridSpec(1.0, 2, 2), placements=())
        doc = json.loads(export_scene(scene, "json"))
        assert doc["placements"] == []
        assert doc["structural"] == []

    def test_yaw_written_in_radians(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa@270\n"), vocab
        )
        doc = json.loads(export_scene(scene, "json"))
        assert doc["placements"][0]["yaw_rad"] == pytest.approx(3 * math.pi / 2, abs=1e-6)

    def test_building_arrays(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        doc = json.loads(export_scene(scene, "json"))
        assert len(doc["structural"]) == 4
        assert len(doc["openings"]) == 2
        opening = doc["openings"][0]
        assert set(opening) == {
            "id",
            "kind",
            "wall",
            "center",
            "width",
            "height",
            "sill",
            "cell",
        }

    def test_non_finite_yaw_refused(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        sofa = scene.placements[0]
        box = dataclasses.replace(sofa.box)
        object.__setattr__(box, "yaw", math.nan)
        scene = dataclasses.replace(scene, placements=(dataclasses.replace(sofa, box=box),))
        with pytest.raises(ValueError):
            export_scene(scene, "json")

    def test_unsupported_format(self, vocab):
        scene = compile_scene(parse_llmsli(make_room("sofa")), vocab)
        with pytest.raises(UnsupportedFormat):
            export_scene(scene, "stl")
        assert FORMATS == ("json", "obj", "svg")


class TestReimport:
    def test_fixed_point(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        blob = export_scene(scene, "json")
        again = load_scene_json(blob, vocab)
        assert export_scene(again, "json") == blob

    def test_poses_survive(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        again = load_scene_json(export_scene(scene, "json"), vocab)
        for a, b in zip(scene.placements, again.placements):
            assert a.id == b.id
            assert a.parent == b.parent
            assert a.depth == b.depth
            assert a.box.center.as_tuple() == pytest.approx(b.box.center.as_tuple(), abs=1e-6)
            assert a.box.size.as_tuple() == pytest.approx(b.box.size.as_tuple(), abs=1e-6)
            assert a.box.yaw == pytest.approx(b.box.yaw, abs=1e-6)

    def test_categories_recovered(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        again = load_scene_json(export_scene(scene, "json"), vocab)
        cats = {p.id: p.category for p in again.placements}
        assert cats["sofa_0"] is Category.FLOOR_FURNITURE
        assert cats["monitor_0"] is Category.SURFACE_ITEM

    def test_building_fixed_point(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        blob = export_scene(scene, "json")
        again = load_scene_json(blob, vocab)
        assert export_scene(again, "json") == blob
        assert all(p.category is Category.STRUCTURAL for p in again.structural)

    def test_accepts_str_and_bytes(self, vocab):
        scene = compile_scene(parse_llmsli(make_room("sofa")), vocab)
        blob = export_scene(scene, "json")
        assert load_scene_json(blob.decode("utf-8"), vocab).placements[0].id == "sofa_0"

    def test_integer_beyond_the_digit_limit_refused(self, vocab):
        blob = export_scene(compile_scene(parse_llmsli(NESTED), vocab), "json")
        assert b'"rows":2' in blob
        with pytest.raises(SchemaError):
            load_scene_json(blob.replace(b'"rows":2', b'"rows":' + b"9" * 5000), vocab)

    def test_provenance_does_not_survive(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        assert scene.provenance
        assert load_scene_json(export_scene(scene, "json"), vocab).provenance == ""


def obj_stats(text: str):
    v = sum(1 for ln in text.splitlines() if ln.startswith("v "))
    f = sum(1 for ln in text.splitlines() if ln.startswith("f "))
    g = [ln.split()[1] for ln in text.splitlines() if ln.startswith("g ")]
    return v, f, g


class TestObjExport:
    def test_counts(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        v, f, g = obj_stats(export_scene(scene, "obj").decode())
        assert v == 8 * 3
        assert f == 12 * 3
        assert g == ["desk_0", "monitor_0", "sofa_0"] or set(g) == {
            "desk_0",
            "monitor_0",
            "sofa_0",
        }

    def test_indices_in_range(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        text = export_scene(scene, "obj").decode()
        n_vertices = sum(1 for ln in text.splitlines() if ln.startswith("v "))
        for ln in text.splitlines():
            if ln.startswith("f "):
                idx = [int(tok) for tok in ln.split()[1:]]
                assert len(idx) == 3
                assert all(1 <= k <= n_vertices for k in idx)

    def test_openings_add_frame_bars(self, vocab):
        solid = RING.replace("w w d w w", "w w w w w").replace(
            "w(AC_on_inner) 0 0 0 c", "w(AC_on_inner) 0 0 0 w"
        )
        with_openings = export_scene(compile_building(parse_llmslb(RING), vocab), "obj")
        without = export_scene(compile_building(parse_llmslb(solid), vocab), "obj")
        dv = obj_stats(with_openings.decode())[0] - obj_stats(without.decode())[0]
        # 2 openings x 4 bars x 8 vertices
        assert dv == 2 * 4 * 8

    def test_vertices_span_box(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa[2x1x0.8]\n"), vocab
        )
        text = export_scene(scene, "obj").decode()
        xs = [float(ln.split()[1]) for ln in text.splitlines() if ln.startswith("v ")]
        zs = [float(ln.split()[3]) for ln in text.splitlines() if ln.startswith("v ")]
        assert min(xs) == pytest.approx(-1.0)
        assert max(xs) == pytest.approx(1.0)
        assert min(zs) == pytest.approx(0.0)
        assert max(zs) == pytest.approx(0.8)


class TestSvgExport:
    def test_well_formed(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        root = ET.fromstring(export_scene(scene, "svg").decode())
        assert root.tag.endswith("svg")
        assert root.get("width") and root.get("height")

    def test_one_polygon_per_box(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        root = ET.fromstring(export_scene(scene, "svg").decode())
        polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
        assert len(polys) == len(scene.placements)

    def test_labels_present(self, vocab):
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        svg = export_scene(scene, "svg").decode()
        for p in scene.placements:
            assert p.id in svg

    def test_byte_stable(self, vocab):
        scene = compile_building(parse_llmslb(RING), vocab)
        assert export_scene(scene, "svg") == export_scene(scene, "svg")


class TestSceneToDict:
    def test_matches_export(self, vocab):
        scenes = [compile_scene(parse_llmsli(NESTED), vocab),
                  compile_building(parse_llmslb(RING), vocab)]
        assert scenes[1].structural and scenes[1].openings
        scenes += [scene for _, scene in compiled(golden_sources("stream", vocab), vocab)]
        for scene in scenes:
            blob = (canonical_json(scene_to_dict(scene)) + "\n").encode("utf-8")
            assert blob == export_scene(scene, "json")


# SHA-256 over the compiling programs of (report JSON lines, scene JSON exports)
GOLDEN_JSON_SHA256 = {
    "stream": (
        "01cc2e3bd1fd820141b2b9fdaef7541b37c759a4fbee0d77b8b1d40fcb6b33f1",
        "cd481e9c338e067d82c8a3393fafc6ad88a095f36493b2b76c6842d3a9478186",
    ),
    "bedroom": (
        "1abea667dce0c1c6110e7373229e6c199eaa9d8399762f285d3c9fd9ac2c73ab",
        "d2760ab1944fea46b0319d6a4a7bc850e92eae831dcc49cc3ee98cb086ae38c1",
    ),
    "living_room": (
        "1abea667dce0c1c6110e7373229e6c199eaa9d8399762f285d3c9fd9ac2c73ab",
        "8aadf2801b44b5c869a44a864e3eab139cd01d0ca7b5c60b5c860d5f8c6fd9c3",
    ),
    "office": (
        "1abea667dce0c1c6110e7373229e6c199eaa9d8399762f285d3c9fd9ac2c73ab",
        "c62f18f5c996ad4743455a6f1eb4e5606fb81535e70978097e0dae17bc3046b2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON_SHA256))
def test_golden_json_bytes(name, vocab):
    report, scene_json = hashlib.sha256(), hashlib.sha256()
    for program, scene in compiled(golden_sources(name, vocab), vocab):
        config = ValidatorConfig(floor_extent_m=getattr(program, "floor_extent_m", None))
        report.update(canonical_json(validate(scene, config).to_dict()).encode() + b"\n")
        scene_json.update(export_scene(scene, "json"))
    assert (report.hexdigest(), scene_json.hexdigest()) == GOLDEN_JSON_SHA256[name]
