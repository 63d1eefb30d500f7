import dataclasses
import hashlib
import json

import pytest

from spatialgrammar import datagen
from spatialgrammar.compiler import compile_placement, compile_scene
from spatialgrammar.datagen import (
    SCHEMA_VERSION,
    derive_subseed,
    extract_pretrain_corpus,
    extract_sft_pairs,
    generate_sft_dataset,
    jsonl_bytes,
    sample_scene,
)
from spatialgrammar.errors import SchemaError, TemplateExhausted
from spatialgrammar.llmsli import CellSpec, parse_llmsli, print_llmsli
from spatialgrammar.relations import check_relation
from spatialgrammar.templates import (
    PACKAGED_TEMPLATES,
    load_template,
    template_from_dict,
    validate_template,
)
from spatialgrammar.validator import (
    BoundsDiagnostic,
    floor_rect,
    footprint,
    footprint_on_floor,
    validate,
)


@pytest.fixture(scope="module")
def living_room():
    return load_template("living_room")


class TestSubseeds:
    def test_formula_frozen(self):
        digest = hashlib.sha256(b"42:sft:0").digest()
        assert derive_subseed(42, "sft", 0) == int.from_bytes(digest[:8], "big")

    def test_distinct_across_index(self):
        seeds = {derive_subseed(1, "x", i) for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_across_tags(self):
        assert derive_subseed(1, "sft", 0) != derive_subseed(1, "dpo", 0)

    def test_distinct_across_base_seed(self):
        assert derive_subseed(1, "sft", 0) != derive_subseed(2, "sft", 0)


class TestTemplates:
    def test_packaged_names(self):
        assert PACKAGED_TEMPLATES == ("living_room", "bedroom", "office")

    def test_load_and_validate_all(self, vocab):
        for name in PACKAGED_TEMPLATES:
            t = load_template(name)
            validate_template(t, vocab)
            assert t.count_range[0] >= 1
            assert t.prompt_templates

    def test_load_by_path(self, tmp_path, living_room):
        import json as _json

        doc = {
            "name": "tiny",
            "room_label": "den",
            "grid": {"cell_size": 1.0, "rows": 3, "cols": 3},
            "object_pool": [{"key": "sofa", "weight": 1.0}, {"key": "plant", "weight": 0.5}],
            "count_range": [1, 2],
            "relation_rules": [],
            "surface_rules": [],
            "prompt_templates": ["Furnish the {room} with {object_list}."],
            "reasoning_templates": ["Place {placement_text}."],
        }
        path = tmp_path / "tiny.json"
        path.write_text(_json.dumps(doc), encoding="utf-8")
        t = load_template(str(path))
        assert t.name == "tiny"
        assert t.grid.rows == 3

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            load_template("ballroom")

    def test_bad_relation_name(self):
        doc = {
            "name": "bad",
            "room_label": "den",
            "grid": {"cell_size": 1.0, "rows": 3, "cols": 3},
            "object_pool": [{"key": "sofa"}, {"key": "tv_stand"}],
            "count_range": [2, 2],
            "relation_rules": [
                {"subject": "sofa", "relation": "near", "object": "tv_stand"}
            ],
            "surface_rules": [],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        with pytest.raises(Exception):
            template_from_dict(doc)

    def test_unknown_identifier_rejected(self, vocab):
        doc = {
            "name": "bad",
            "room_label": "den",
            "grid": {"cell_size": 1.0, "rows": 3, "cols": 3},
            "object_pool": [{"key": "hovercraft"}],
            "count_range": [1, 1],
            "relation_rules": [],
            "surface_rules": [],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        t = template_from_dict(doc)
        with pytest.raises(Exception):
            validate_template(t, vocab)

    def test_count_range_capped_by_capacity(self):
        doc = {
            "name": "bad",
            "room_label": "den",
            "grid": {"cell_size": 1.0, "rows": 2, "cols": 2},
            "object_pool": [{"key": "sofa"}],
            "count_range": [5, 9],
            "relation_rules": [],
            "surface_rules": [],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        with pytest.raises(Exception):
            template_from_dict(doc)


    @pytest.mark.parametrize(
        "patch",
        [
            {"grid": {"cell_size": 1.0, "rows": 0, "cols": 3}},
            {"grid": {"cell_size": 1.0, "cols": 3}},
            {"count_range": [2]},
            {"object_pool": [{"key": 5}, {"key": "plant"}]},
            {"object_pool": [{"key": "sofa", "weight": float("nan")}, {"key": "plant"}]},
            {"relation_rules": [{"subject": 3, "relation": "near", "object": "sofa"}]},
            {"surface_rules": [{"host": "sofa", "item": "vase", "prob": 2}]},
            {"prompt_templates": ["A {room} with {furniture}."]},
            {"reasoning_templates": ["First {0}."]},
            {"reasoning_templates": [7]},
        ],
        ids=["zero-rows", "no-rows", "short-count-range", "numeric-key", "nan-weight",
             "numeric-subject", "probability", "unknown-field", "positional-field",
             "non-text"],
    )
    def test_wrong_shape_is_schema_error(self, patch):
        doc = {
            "name": "tiny",
            "grid": {"cell_size": 1.0, "rows": 3, "cols": 3},
            "object_pool": [{"key": "sofa"}, {"key": "plant"}],
            "count_range": [1, 2],
            "prompt_templates": ["Furnish the {room} with {object_list}."],
            "reasoning_templates": ["{rule_text} Place {placement_text}."],
        }
        template_from_dict(doc)
        with pytest.raises(SchemaError):
            template_from_dict({**doc, **patch})

    @pytest.mark.parametrize("rows, cols", [(65, 3), (3, 65), (1000, 1000)])
    def test_grid_beyond_64_is_schema_error(self, rows, cols):
        doc = {
            "name": "hall",
            "grid": {"cell_size": 1.0, "rows": rows, "cols": cols},
            "object_pool": [{"key": "sofa"}],
            "count_range": [1, 1],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        with pytest.raises(SchemaError, match=f"{rows}x{cols} exceeds the 64x64 limit"):
            template_from_dict(doc)
        template_from_dict({**doc, "grid": {"cell_size": 1.0, "rows": 64, "cols": 64}})

    def test_replace_rechecks_the_grid_limit(self, living_room):
        with pytest.raises(SchemaError, match=f"65x{living_room.grid.cols} "):
            dataclasses.replace(living_room, grid=dataclasses.replace(living_room.grid, rows=65))

    @pytest.mark.parametrize("doc", [None, [1], "living_room"])
    def test_non_object_is_schema_error(self, doc):
        with pytest.raises(SchemaError, match="JSON object"):
            template_from_dict(doc)


class TestSampleScene:
    def test_deterministic(self, living_room, vocab):
        a = sample_scene(living_room, 7, vocab)
        b = sample_scene(living_room, 7, vocab)
        assert a == b

    def test_seeds_vary(self, living_room, vocab):
        codes = {sample_scene(living_room, s, vocab).code for s in range(6)}
        assert len(codes) > 1

    def test_always_validated(self, living_room, vocab):
        for seed in range(30):
            sample = sample_scene(living_room, seed, vocab)
            scene = compile_scene(parse_llmsli(sample.code), vocab)
            report = validate(scene)
            assert report.passed, report
            assert sample.validated

    def test_code_is_canonical(self, living_room, vocab):
        for seed in range(10):
            code = sample_scene(living_room, seed, vocab).code
            assert print_llmsli(parse_llmsli(code)) == code

    def test_rules_hold_when_participants_present(self, living_room, vocab):
        for seed in range(20):
            scene = compile_scene(
                parse_llmsli(sample_scene(living_room, seed, vocab).code), vocab
            )
            present = {p.identifier for p in scene.placements}
            for rule in living_room.relation_rules:
                if rule.subject in present and rule.object in present:
                    assert check_relation(
                        scene, rule.relation, rule.subject, rule.object
                    ), (seed, rule)

    def test_prompt_and_reasoning_populated(self, living_room, vocab):
        sample = sample_scene(living_room, 3, vocab)
        assert living_room.room_label in sample.prompt
        assert sample.reasoning.strip()
        assert "llmsli" in sample.code

    def test_exhaustion(self, vocab):
        doc = {
            "name": "cramped",
            "room_label": "closet",
            "grid": {"cell_size": 1.0, "rows": 2, "cols": 2},
            "object_pool": [{"key": "sofa"}],
            "count_range": [1, 1],
            "relation_rules": [],
            "surface_rules": [],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        # a 1.9 m sofa cannot sit inside a 2 m floor from any cell anchor
        t = template_from_dict(doc)
        with pytest.raises(TemplateExhausted):
            sample_scene(t, 0, vocab)

    @pytest.mark.parametrize("seed", range(5))
    def test_ceiling_object_leaves_the_floor_free(self, vocab, seed):
        doc = {
            "name": "hall",
            "room_label": "hall",
            "grid": {"cell_size": 1.0, "rows": 1, "cols": 3},
            "object_pool": [{"key": "sofa"}, {"key": "pendant_light"}],
            "count_range": [2, 2],
            "relation_rules": [],
            "surface_rules": [],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        # the sofa fits the floor only turned along the row from the middle
        # cell; the light hangs from the ceiling, so it may sit above it
        sample = sample_scene(template_from_dict(doc), seed, vocab)
        scene = compile_scene(parse_llmsli(sample.code), vocab)
        assert {p.identifier for p in scene.placements} == {"sofa", "pendant_light"}
        assert validate(scene).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_ceiling_object_does_not_exhaust_the_sampler(self, vocab, seed):
        doc = {
            "name": "den",
            "room_label": "den",
            "grid": {"cell_size": 1.0, "rows": 3, "cols": 3},
            "object_pool": [{"key": "sofa"}, {"key": "ceiling_fan"}],
            "count_range": [2, 2],
            "relation_rules": [],
            "surface_rules": [],
            "prompt_templates": ["x {room} {object_list}"],
            "reasoning_templates": ["y {placement_text}"],
        }
        # the fan no longer blocks a floor cell, so the search itself must
        # keep the sofa off the cells where it would leave the floor
        sample = sample_scene(template_from_dict(doc), seed, vocab)
        scene = compile_scene(parse_llmsli(sample.code), vocab)
        assert {p.identifier for p in scene.placements} == {"sofa", "ceiling_fan"}
        assert validate(scene).passed


def _counting(monkeypatch, name):
    calls = []
    real = getattr(datagen, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(datagen, name, wrapped)
    return calls


class TestSamplerWork:
    @pytest.mark.parametrize("name", PACKAGED_TEMPLATES)
    def test_one_compile_and_one_validate_per_sample(self, name, vocab, monkeypatch):
        compiles = _counting(monkeypatch, "compile_scene")
        reports = _counting(monkeypatch, "validate")
        samples = generate_sft_dataset(load_template(name, vocab), 60, 2024, vocab)
        assert len(samples) == 60
        assert len(compiles) == 60
        assert len(reports) == 60
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("name", PACKAGED_TEMPLATES)
    def test_one_lowering_per_candidate(self, name, vocab, monkeypatch):
        prints = _counting(monkeypatch, "footprint")
        keys = []
        real = datagen.compile_placement

        def keyed(cell, at, *args):
            keys.append((cell.key, cell.yaw_deg, at))
            return real(cell, at, *args)

        monkeypatch.setattr(datagen, "compile_placement", keyed)
        generate_sft_dataset(load_template(name, vocab), 60, 2024, vocab)
        assert len(keys) == len(set(keys)) > 0
        assert len(prints) == len(keys)

    @staticmethod
    def _template():
        return template_from_dict(
            {
                "name": "nook",
                "room_label": "nook",
                "grid": {"cell_size": 1.0, "rows": 3, "cols": 3},
                "object_pool": [{"key": "side_table"}],
                "count_range": [1, 1],
                "relation_rules": [],
                "surface_rules": [{"host": "side_table", "item": "vase", "prob": 1.0}],
                "prompt_templates": ["x {room} {object_list}"],
                "reasoning_templates": ["y {placement_text}"],
            }
        )

    def _fail_first(self, monkeypatch, pick):
        """Make the first validate call fail with a bounds diagnostic on the
        placement pick(scene) returns; count the compiles."""
        compiles = _counting(monkeypatch, "compile_scene")
        real = datagen.validate
        calls = []

        def validate_once_failing(scene, *args):
            calls.append(scene)
            report = real(scene, *args)
            if len(calls) > 1:
                return report
            bad = BoundsDiagnostic(id=pick(scene).id, corner=(0.0, 0.0), message="forced")
            return dataclasses.replace(report, bounds_violations=(bad,), passed=False)

        monkeypatch.setattr(datagen, "validate", validate_once_failing)
        return compiles

    def test_root_failure_skips_the_strip_retry(self, vocab, monkeypatch):
        compiles = self._fail_first(
            monkeypatch, lambda s: next(p for p in s.placements if p.parent is None)
        )
        sample = sample_scene(self._template(), 0, vocab)
        # the failed layout is dropped whole; the next attempt keeps its vase
        assert len(compiles) == 2
        assert [p.parent for p in compiles[0].placements] == [None, "side_table_0"]
        assert "vase" in sample.code

    def test_surface_item_failure_retries_without_items(self, vocab, monkeypatch):
        compiles = self._fail_first(
            monkeypatch, lambda s: next(p for p in s.placements if p.parent is not None)
        )
        sample = sample_scene(self._template(), 0, vocab)
        assert len(compiles) == 2
        assert [p.identifier for p in compiles[1].placements] == ["side_table"]
        assert "vase" not in sample.code


class TestLoweringTable:
    @pytest.mark.parametrize("name", PACKAGED_TEMPLATES)
    def test_entries_equal_a_fresh_lowering(self, name, vocab):
        t = load_template(name, vocab)
        grid, rect = t.grid, floor_rect(t.grid)
        table = {}
        for seed in range(5):  # entries the search itself put in the table
            sample_scene(t, seed, vocab, _lowered=table)
        filled = len(table)
        assert filled > 0
        for ident, _ in t.object_pool:
            for yaw in datagen._YAWS:
                for at in [(i, j) for i in range(grid.rows) for j in range(grid.cols)]:
                    box = compile_placement(CellSpec(ident, yaw), at, grid, vocab)
                    fp = footprint(box)
                    fresh = (box, fp, footprint_on_floor(fp, rect))
                    assert datagen._lowering(table, ident, yaw, at, grid, vocab, rect) == fresh
        assert len(table) == len(t.object_pool) * 4 * grid.rows * grid.cols > filled

    @pytest.mark.parametrize("name", PACKAGED_TEMPLATES)
    def test_fresh_table_gives_the_dataset_samples(self, name, vocab):
        t = load_template(name, vocab)
        dataset = generate_sft_dataset(t, 60, 2024, vocab)
        alone = []
        for i in range(4 * 60):
            try:
                sample = sample_scene(t, derive_subseed(2024, t.name, i), vocab)
            except TemplateExhausted:
                continue
            if sample not in alone:
                alone.append(sample)
            if len(alone) == 12:
                break
        assert alone == dataset[:12]


class TestDataset:
    def test_exact_count_unique(self, living_room, vocab):
        samples = generate_sft_dataset(living_room, 12, seed=5, vocab=vocab)
        assert len(samples) == 12
        assert len({s.code for s in samples}) == 12

    def test_deterministic_bytes(self, living_room, vocab):
        a = generate_sft_dataset(living_room, 8, seed=9, vocab=vocab)
        b = generate_sft_dataset(living_room, 8, seed=9, vocab=vocab)
        assert jsonl_bytes(extract_sft_pairs(a)) == jsonl_bytes(extract_sft_pairs(b))

    def test_seed_changes_output(self, living_room, vocab):
        a = generate_sft_dataset(living_room, 5, seed=1, vocab=vocab)
        b = generate_sft_dataset(living_room, 5, seed=2, vocab=vocab)
        assert [s.code for s in a] != [s.code for s in b]

    def test_n_must_be_positive(self, living_room, vocab):
        with pytest.raises(ValueError):
            generate_sft_dataset(living_room, 0, seed=1, vocab=vocab)

    def test_subseeds_derived_only_for_candidates_tried(self, living_room, vocab, monkeypatch):
        derived, tried = [], []
        real_derive, real_sample = datagen.derive_subseed, datagen.sample_scene

        def derive(seed, tag, index):
            derived.append(index)
            return real_derive(seed, tag, index)

        def sample(t, seed, *args, **kwargs):
            tried.append(seed)
            return real_sample(t, seed, *args, **kwargs)

        monkeypatch.setattr(datagen, "derive_subseed", derive)
        monkeypatch.setattr(datagen, "sample_scene", sample)
        assert len(generate_sft_dataset(living_room, 5, 2024, vocab)) == 5
        assert derived == list(range(len(tried)))
        assert 5 <= len(tried) < 4 * 5


class TestExtraction:
    def test_pretrain_three_per_sample(self, living_room, vocab):
        samples = generate_sft_dataset(living_room, 4, seed=3, vocab=vocab)
        records = extract_pretrain_corpus(samples)
        assert len(records) == 12
        assert all(r["schema_version"] == SCHEMA_VERSION for r in records)
        assert records[0]["text"] == samples[0].prompt
        assert records[1]["text"] == samples[0].reasoning
        assert records[2]["text"] == samples[0].code

    def test_sft_pairs_omit_reasoning(self, living_room, vocab):
        samples = generate_sft_dataset(living_room, 3, seed=3, vocab=vocab)
        pairs = extract_sft_pairs(samples)
        assert all(set(p) == {"schema_version", "prompt", "code"} for p in pairs)

    def test_jsonl_round_trip(self, living_room, vocab):
        samples = generate_sft_dataset(living_room, 3, seed=4, vocab=vocab)
        records = extract_sft_pairs(samples)
        lines = jsonl_bytes(records).decode("utf-8").splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_jsonl_bytes_sorted_compact(self):
        assert jsonl_bytes([{"b": 1, "a": 2}]) == b'{"a":2,"b":1}\n'
        assert jsonl_bytes([]) == b""


# SHA-256 of `sgc gen-data --stage sft|pretrain --n 60 --seed 2024` output
GOLDEN_SFT_SHA256 = {
    "bedroom": (
        "fbce8f1d1adec3a3ccbdfd4c38ba8527625ffa5073ffb1f3c670463c425a6169",
        "4f7ed0c1eb5672e78a92beb425235a3fc4a1f021c0fa8c23848e68155a0bd08c",
    ),
    "living_room": (
        "4203d69d91a473154f2b61fa4d2d085556db0d447c6d77e347430e4572e79892",
        "445b846f4a6f01bdb42794b792313dec53c7b27d734a73bb464d04e673957e55",
    ),
    "office": (
        "1cd47a3525a7c1f87cf5a15850707c516789a9f0da43591e4ee48b2cdcf2fa70",
        "cb8a9ea51b74dc3e7315d7584949ad6359118a79f0342c080ed49cfd887ed31b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SFT_SHA256))
def test_golden_sft_bytes(name, vocab):
    samples = generate_sft_dataset(load_template(name, vocab), 60, 2024, vocab)
    digests = tuple(
        hashlib.sha256(jsonl_bytes(extract(samples))).hexdigest()
        for extract in (extract_sft_pairs, extract_pretrain_corpus)
    )
    assert digests == GOLDEN_SFT_SHA256[name]
