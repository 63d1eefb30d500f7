import json
import math
import xml.etree.ElementTree as ET

import pytest

from spatialgrammar.compiler import CompiledScene, compile_building, compile_scene
from spatialgrammar.errors import UnsupportedFormat
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
        scene = compile_scene(parse_llmsli(NESTED), vocab)
        assert canonical_json(scene_to_dict(scene)).encode() + b"\n" == export_scene(
            scene, "json"
        ) or canonical_json(scene_to_dict(scene)).encode() == export_scene(scene, "json")
