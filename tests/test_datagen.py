import hashlib
import json

import pytest

from spatialgrammar.compiler import compile_scene
from spatialgrammar.datagen import (
    SCHEMA_VERSION,
    derive_subseed,
    extract_pretrain_corpus,
    extract_sft_pairs,
    generate_sft_dataset,
    jsonl_bytes,
    sample_scene,
)
from spatialgrammar.errors import TemplateExhausted
from spatialgrammar.llmsli import parse_llmsli, print_llmsli
from spatialgrammar.relations import check_relation
from spatialgrammar.templates import (
    PACKAGED_TEMPLATES,
    load_template,
    template_from_dict,
    validate_template,
)
from spatialgrammar.validator import validate


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


class TestDataset:
    def test_exact_count_unique(self, living_room, vocab):
        samples = generate_sft_dataset(living_room, 12, seed=5, vocab=vocab)
        assert len(samples) == 12
        assert len({s.code for s in samples}) == 12

    def test_deterministic_bytes(self, living_room, vocab):
        a = generate_sft_dataset(living_room, 8, seed=9, vocab=vocab)
        b = generate_sft_dataset(living_room, 8, seed=9, vocab=vocab)
        assert jsonl_bytes(extract_sft_pairs(a)) == jsonl_bytes(extract_sft_pairs(b))

    def test_workers_do_not_change_output(self, living_room, vocab):
        serial = generate_sft_dataset(living_room, 10, seed=11, vocab=vocab, workers=0)
        parallel = generate_sft_dataset(living_room, 10, seed=11, vocab=vocab, workers=2)
        assert serial == parallel

    def test_seed_changes_output(self, living_room, vocab):
        a = generate_sft_dataset(living_room, 5, seed=1, vocab=vocab)
        b = generate_sft_dataset(living_room, 5, seed=2, vocab=vocab)
        assert [s.code for s in a] != [s.code for s in b]

    def test_n_must_be_positive(self, living_room, vocab):
        with pytest.raises(ValueError):
            generate_sft_dataset(living_room, 0, seed=1, vocab=vocab)


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
