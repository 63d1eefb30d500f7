import json

import pytest

from spatialgrammar.compiler import compile_scene
from spatialgrammar.drfr import (
    AtomicCheck,
    CheckKind,
    Checklist,
    evaluate_check,
    evaluate_cumulative,
    evaluate_drfr,
    load_checklists,
)
from spatialgrammar.errors import LengthMismatch, SchemaError, UnknownRelation
from spatialgrammar.llmsli import parse_llmsli


SRC = (
    "llmsli grid=1m dims=4x4\n"
    "main:\n"
    "0 0 0 0\n"
    "0 sofa@90 0 0\n"
    "0 0 0 0\n"
    "0 tv_stand@180(Screen_on_top) 0 0\n"
    "sublayout Screen dims=1x1:\n"
    "tv\n"
)


@pytest.fixture()
def scene(vocab):
    return compile_scene(parse_llmsli(SRC), vocab)


def exist(subject, label=None):
    return AtomicCheck(kind=CheckKind.EXIST, subject=subject, label=label)


class TestAtomicCheckValidation:
    def test_relation_only_for_spatial(self):
        with pytest.raises(ValueError):
            AtomicCheck(kind=CheckKind.EXIST, subject="sofa", relation="facing")

    def test_spatial_needs_relation(self):
        with pytest.raises(ValueError):
            AtomicCheck(kind=CheckKind.SPATIAL_RELATION, subject="a", object="b")

    def test_support_needs_object(self):
        with pytest.raises(ValueError):
            AtomicCheck(kind=CheckKind.HIERARCHY_SUPPORT, subject="tv")

    def test_round_trip(self):
        c = AtomicCheck(
            kind=CheckKind.ATTRIBUTE_SIZE,
            subject="sofa",
            params=(("category", "floor_furniture"), ("min_size", [1.0, 0.5, 0.3])),
            label="sofa-size",
        )
        assert AtomicCheck.from_dict(c.to_dict()) == c


class TestEvaluateCheck:
    def test_exist(self, scene):
        assert evaluate_check(scene, exist("sofa"))
        assert evaluate_check(scene, exist("tv_0"))
        assert not evaluate_check(scene, exist("piano"))

    def test_attribute_category(self, scene):
        ok = AtomicCheck(
            kind=CheckKind.ATTRIBUTE_SIZE,
            subject="sofa",
            params=(("category", "floor_furniture"),),
        )
        wrong = AtomicCheck(
            kind=CheckKind.ATTRIBUTE_SIZE,
            subject="sofa",
            params=(("category", "surface_item"),),
        )
        assert evaluate_check(scene, ok)
        assert not evaluate_check(scene, wrong)

    def test_attribute_size_window(self, scene):
        fits = AtomicCheck(
            kind=CheckKind.ATTRIBUTE_SIZE,
            subject="sofa",
            params=(("max_size", [2.5, 1.5, 1.0]), ("min_size", [1.0, 0.5, 0.5])),
        )
        too_big_min = AtomicCheck(
            kind=CheckKind.ATTRIBUTE_SIZE,
            subject="sofa",
            params=(("min_size", [5.0, 0.5, 0.5]),),
        )
        assert evaluate_check(scene, fits)
        assert not evaluate_check(scene, too_big_min)

    def test_attribute_missing_subject(self, scene):
        c = AtomicCheck(kind=CheckKind.ATTRIBUTE_SIZE, subject="piano")
        assert not evaluate_check(scene, c)

    def test_spatial_relation(self, scene):
        # the tv_stand sits along +x from the sofa, but the sofa faces +y
        c = AtomicCheck(
            kind=CheckKind.SPATIAL_RELATION,
            subject="sofa",
            object="tv_stand",
            relation="facing",
        )
        assert not evaluate_check(scene, c)
        d = AtomicCheck(
            kind=CheckKind.SPATIAL_RELATION,
            subject="tv_stand",
            object="sofa",
            relation="facing",
        )
        assert evaluate_check(scene, d)  # yaw 180 points back up the rows at the sofa

    def test_unknown_relation_raises(self, scene):
        c = AtomicCheck(
            kind=CheckKind.SPATIAL_RELATION, subject="a", object="b", relation="near"
        )
        with pytest.raises(UnknownRelation):
            evaluate_check(scene, c)

    def test_hierarchy_support(self, scene):
        ok = AtomicCheck(
            kind=CheckKind.HIERARCHY_SUPPORT, subject="tv", object="tv_stand"
        )
        wrong_parent = AtomicCheck(
            kind=CheckKind.HIERARCHY_SUPPORT, subject="tv", object="sofa"
        )
        assert evaluate_check(scene, ok)
        assert not evaluate_check(scene, wrong_parent)


class TestRatio:
    def test_three_quarters(self, scene):
        cl = Checklist(
            checks=(
                exist("sofa"),
                exist("tv_stand"),
                exist("tv"),
                exist("piano"),
            )
        )
        result = evaluate_drfr(scene, cl)
        assert result.ratio == pytest.approx(0.75)
        assert [ok for _, ok in result.per_check] == [True, True, True, False]

    def test_perfect(self, scene):
        cl = Checklist(checks=(exist("sofa"), exist("tv")))
        assert evaluate_drfr(scene, cl).ratio == 1.0

    def test_order_invariant(self, scene):
        checks = [exist("sofa"), exist("piano"), exist("tv")]
        a = evaluate_drfr(scene, Checklist(checks=tuple(checks)))
        b = evaluate_drfr(scene, Checklist(checks=tuple(reversed(checks))))
        assert a.ratio == b.ratio

    def test_result_dict(self, scene):
        result = evaluate_drfr(scene, Checklist(checks=(exist("sofa"),)))
        doc = result.to_dict()
        assert doc["ratio"] == 1.0
        assert doc["per_check"][0]["satisfied"] is True

    def test_empty_checklist_rejected(self):
        with pytest.raises(ValueError):
            Checklist(checks=())

    def test_removes_only_checklist_has_nothing_to_score(self, scene):
        with pytest.raises(SchemaError, match="nothing to score"):
            evaluate_drfr(scene, Checklist(checks=(), removes=("x",)))


class TestCumulative:
    def test_union_over_turns(self, vocab):
        turn1 = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n0 0 0\n"),
            vocab,
        )
        turn2 = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\nbed 0 0\n0 sofa 0\n0 0 0\n"),
            vocab,
        )
        lists = [
            Checklist(checks=(exist("sofa", label="sofa"),), turn_id=1),
            Checklist(checks=(exist("bed", label="bed"),), turn_id=2),
        ]
        out = evaluate_cumulative([turn1, turn2], lists)
        assert [r.ratio for r in out] == [1.0, 1.0]

    def test_forgetting_detected(self, vocab):
        turn1 = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n0 0 0\n"),
            vocab,
        )
        # the second turn drops the sofa while adding the bed
        turn2 = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\nbed 0 0\n0 0 0\n0 0 0\n"),
            vocab,
        )
        lists = [
            Checklist(checks=(exist("sofa", label="sofa"),), turn_id=1),
            Checklist(checks=(exist("bed", label="bed"),), turn_id=2),
        ]
        out = evaluate_cumulative([turn1, turn2], lists)
        assert out[0].ratio == 1.0
        assert out[1].ratio == 0.5  # the union still expects the sofa

    def test_removes_by_label(self, vocab):
        turn1 = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n0 0 0\n"),
            vocab,
        )
        turn2 = compile_scene(
            parse_llmsli("llmsli grid=1m dims=3x3\nmain:\nbed 0 0\n0 0 0\n0 0 0\n"),
            vocab,
        )
        lists = [
            Checklist(checks=(exist("sofa", label="sofa"),), turn_id=1),
            Checklist(
                checks=(exist("bed", label="bed"),), turn_id=2, removes=("sofa",)
            ),
        ]
        out = evaluate_cumulative([turn1, turn2], lists)
        assert [r.ratio for r in out] == [1.0, 1.0]

    def test_turn_with_nothing_to_score_is_named(self, vocab):
        scene = compile_scene(parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa\n"), vocab)
        lists = [
            Checklist(checks=(exist("sofa", label="sofa"),), turn_id=1),
            Checklist(checks=(), turn_id=2, removes=("sofa",)),
        ]
        with pytest.raises(SchemaError, match=r"^turn 2 \(turn_id 2\) leaves no check to score$"):
            evaluate_cumulative([scene, scene], lists)
        with pytest.raises(SchemaError, match=r"^turn 1 leaves no check to score$"):
            evaluate_cumulative([scene], [Checklist(checks=(), removes=("x",))])

    def test_length_mismatch(self, vocab):
        scene = compile_scene(
            parse_llmsli("llmsli grid=1m dims=1x1\nmain:\nsofa\n"), vocab
        )
        with pytest.raises(LengthMismatch):
            evaluate_cumulative([scene], [])


class TestLoadChecklists:
    def test_single_document(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"checks": [{"kind": "exist", "subject": "sofa"}]}),
            encoding="utf-8",
        )
        lists = load_checklists(str(path))
        assert len(lists) == 1
        assert lists[0].checks[0] == exist("sofa")

    def test_turns_document(self, tmp_path):
        doc = {
            "turns": [
                {"turn_id": 1, "checks": [{"kind": "exist", "subject": "sofa", "label": "s"}]},
                {"turn_id": 2, "checks": [], "removes": ["s"]},
            ]
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        lists = load_checklists(str(path))
        assert lists[0].turn_id == 1
        assert lists[1].removes == ("s",)

    def test_params_sorted_on_load(self, tmp_path):
        doc = {
            "checks": [
                {
                    "kind": "attribute_size",
                    "subject": "sofa",
                    "params": {"min_size": [1, 1, 1], "category": "floor_furniture"},
                }
            ]
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        check = load_checklists(str(path))[0].checks[0]
        assert check.params[0][0] == "category"
