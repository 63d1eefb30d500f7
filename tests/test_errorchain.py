import pytest

from spatialgrammar.compiler import compile_scene
from spatialgrammar.datagen import generate_sft_dataset, derive_subseed
from spatialgrammar.errorchain import (
    CHAIN_ORDER,
    ErrorType,
    classify_failure,
    error_chain,
    generate_dpo_pairs,
    inject_error,
)
from spatialgrammar.errors import ChainFailed, ParseError
from spatialgrammar.llmsli import parse_llmsli
from spatialgrammar.relations import check_relation
from spatialgrammar.templates import load_template
from spatialgrammar.validator import check_collisions, validate


@pytest.fixture(scope="module")
def living_room():
    return load_template("living_room")


@pytest.fixture(scope="module")
def samples(living_room):
    from spatialgrammar.vocab import load_vocabulary

    return generate_sft_dataset(living_room, 12, seed=77, vocab=load_vocabulary())


class TestClassifyFailure:
    def test_clean_scene_is_none(self, samples, vocab):
        assert classify_failure(samples[0].code, vocab) == "none"

    def test_syntax(self, vocab):
        assert classify_failure("llmsli grid=\nmain:\nsofa\n", vocab) == "syntax"

    def test_compile(self, vocab):
        code = "llmsli grid=1m dims=1x1\nmain:\nunobtainium\n"
        assert classify_failure(code, vocab) == "compile"

    def test_collision(self, vocab):
        code = (
            "llmsli grid=1m dims=4x4\nmain:\n"
            "0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n"
        )
        assert classify_failure(code, vocab) == "collision"

    def test_bounds(self, vocab):
        code = "llmsli grid=1m dims=2x2\nmain:\nsofa 0\n0 0\n"
        assert classify_failure(code, vocab) == "bounds"


class TestInjectors:
    def test_semantic_swaps_object(self, samples, vocab, living_room):
        code, what = inject_error(
            samples[0].code, ErrorType.SEMANTIC, seed=3, vocab=vocab, template=living_room
        )
        assert code != samples[0].code
        assert what
        # the swap alone must not add or remove collisions
        before = len(check_collisions(compile_scene(parse_llmsli(samples[0].code), vocab)))
        after = len(check_collisions(compile_scene(parse_llmsli(code), vocab)))
        assert before == after

    def test_semantic_changes_identifiers(self, samples, vocab, living_room):
        base_idents = sorted(
            p.identifier
            for p in compile_scene(parse_llmsli(samples[0].code), vocab).placements
        )
        code, _ = inject_error(
            samples[0].code, ErrorType.SEMANTIC, seed=3, vocab=vocab, template=living_room
        )
        new_idents = sorted(
            p.identifier for p in compile_scene(parse_llmsli(code), vocab).placements
        )
        assert base_idents != new_idents

    def test_spatial_breaks_a_rule(self, samples, vocab, living_room):
        # find a sample where some rule is active
        for sample in samples:
            scene = compile_scene(parse_llmsli(sample.code), vocab)
            present = {p.identifier for p in scene.placements}
            active = [
                r
                for r in living_room.relation_rules
                if r.subject in present and r.object in present
            ]
            if not active:
                continue
            code, what = inject_error(
                sample.code, ErrorType.SPATIAL, seed=5, vocab=vocab, template=living_room
            )
            broken_scene = compile_scene(parse_llmsli(code), vocab)
            broken = [
                r
                for r in active
                if not check_relation(broken_scene, r.relation, r.subject, r.object)
            ]
            assert broken, what
            return
        pytest.skip("no sample with an active rule in this batch")

    def test_collision_creates_overlap(self, samples, vocab, living_room):
        code, what = inject_error(
            samples[0].code, ErrorType.COLLISION, seed=11, vocab=vocab, template=living_room
        )
        scene = compile_scene(parse_llmsli(code), vocab)
        assert check_collisions(scene)
        assert "overlap" in what or "collide" in what or "onto" in what

    def test_syntax_breaks_parse(self, samples, vocab):
        code, what = inject_error(samples[0].code, ErrorType.SYNTAX, seed=2, vocab=vocab)
        with pytest.raises(ParseError):
            parse_llmsli(code)

    def test_deterministic(self, vocab):
        code = (
            "llmsli grid=1m dims=6x6\n"
            "main:\n"
            "0 0 0 0 0 0\n"
            "0 sofa 0 0 0 0\n"
            "0 0 0 0 0 0\n"
            "0 0 0 0 coffee_table 0\n"
            "0 0 0 0 0 0\n"
            "0 0 0 0 0 0\n"
        )
        a = inject_error(code, ErrorType.COLLISION, seed=4, vocab=vocab)
        b = inject_error(code, ErrorType.COLLISION, seed=4, vocab=vocab)
        assert a == b
        assert classify_failure(a[0], vocab) == "collision"

    def test_accepts_string_type(self, samples, vocab):
        code, _ = inject_error(samples[0].code, "syntax", seed=1, vocab=vocab)
        assert code != samples[0].code


class TestErrorChain:
    def test_chain_size_and_order(self, samples, vocab, living_room):
        order = {t.value: k for k, t in enumerate(CHAIN_ORDER)}
        for k, sample in enumerate(samples[:8]):
            corrupted, errors = error_chain(
                sample.code, seed=100 + k, vocab=vocab, template=living_room
            )
            assert 2 <= len(errors) <= 3
            types = [e["type"] for e in errors]
            assert len(set(types)) == len(types)  # distinct types
            assert types == sorted(types, key=order.__getitem__)
            assert all(e["description"] for e in errors)

    def test_chain_verifiably_fails(self, samples, vocab, living_room):
        for k, sample in enumerate(samples[:8]):
            corrupted, errors = error_chain(
                sample.code, seed=200 + k, vocab=vocab, template=living_room
            )
            assert classify_failure(corrupted, vocab) != "none"

    def test_syntax_dominates_classification(self, samples, vocab, living_room):
        for k, sample in enumerate(samples[:8]):
            corrupted, errors = error_chain(
                sample.code, seed=300 + k, vocab=vocab, template=living_room
            )
            if any(e["type"] == "syntax" for e in errors):
                assert classify_failure(corrupted, vocab) == "syntax"

    def test_deterministic(self, samples, vocab, living_room):
        a = error_chain(samples[2].code, seed=9, vocab=vocab, template=living_room)
        b = error_chain(samples[2].code, seed=9, vocab=vocab, template=living_room)
        assert a == b

    def test_type_coverage(self, samples, vocab, living_room):
        seen: set[str] = set()
        for k, sample in enumerate(samples):
            _, errors = error_chain(
                sample.code, seed=400 + k, vocab=vocab, template=living_room
            )
            seen.update(e["type"] for e in errors)
        assert seen == {t.value for t in ErrorType}


class TestDpoPairs:
    def test_pair_shape(self, samples, vocab, living_room):
        pairs = generate_dpo_pairs(samples[:6], seed=1, vocab=vocab, template=living_room)
        assert pairs
        for pair in pairs:
            assert pair.chosen != pair.rejected
            assert 2 <= len(pair.injected_errors) <= 3
            assert classify_failure(pair.rejected, vocab) != "none"
            assert classify_failure(pair.chosen, vocab) == "none"

    def test_prompt_matches_sample(self, samples, vocab, living_room):
        pairs = generate_dpo_pairs(samples[:4], seed=1, vocab=vocab, template=living_room)
        prompts = {s.prompt for s in samples[:4]}
        assert all(p.prompt in prompts for p in pairs)
        chosen = {s.code for s in samples[:4]}
        assert all(p.chosen in chosen for p in pairs)

    def test_deterministic(self, samples, vocab, living_room):
        a = generate_dpo_pairs(samples[:5], seed=2, vocab=vocab, template=living_room)
        b = generate_dpo_pairs(samples[:5], seed=2, vocab=vocab, template=living_room)
        assert a == b

    def test_multiple_variants(self, samples, vocab, living_room):
        pairs = generate_dpo_pairs(samples[:4], seed=3, vocab=vocab, template=living_room, n=8)
        assert len(pairs) > 4  # most samples corrupt cleanly twice
        rejected = [p.rejected for p in pairs]
        assert len(set(rejected)) == len(rejected)

    def test_n_is_a_prefix(self, samples, vocab, living_room):
        longer = generate_dpo_pairs(samples[:3], seed=4, vocab=vocab, template=living_room, n=7)
        assert len(longer) == 7
        for k in (1, 3, 5):
            shorter = generate_dpo_pairs(
                samples[:3], seed=4, vocab=vocab, template=living_room, n=k
            )
            assert shorter == longer[:k]

    def test_no_samples(self, vocab, living_room):
        assert generate_dpo_pairs([], seed=1, vocab=vocab, template=living_room) == []
        with pytest.raises(ChainFailed):
            generate_dpo_pairs([], seed=1, vocab=vocab, template=living_room, n=1)

    def test_variant_seeds_differ(self):
        assert derive_subseed(3, "dpo0", 1) != derive_subseed(3, "dpo1", 1)
