"""Seeded synthetic data: constructive scene sampling and corpus assembly.

Every sample comes from its own sub-seed derived by hashing (seed, tag,
index), so a dataset is reproducible record for record.  Scenes are built
constructively: objects are placed one at a time, each candidate (cell,
yaw) checked against the floor bounds, the already placed boxes and the
template's relation rules, and the finished program must pass the full
validator before it is emitted.

A candidate is lowered by the compiler once per dataset: a table keyed by
(identifier, yaw, row, col) keeps its box, its footprint and whether that
footprint stays on the floor, so later lookups reuse it.  Against each
placed box the search first compares ground-plane AABBs and runs the
separating-axis test only on pairs they do not keep apart.

`build_corpus` is the one corpus pipeline: `sgc gen-data` and
`scripts/generate_corpus.py` both call it.  It samples one dataset and
returns its `pretrain` and `sft` records and, when asked for pairs, the
`dpo` records that `errorchain.generate_dpo_pairs` builds from the same
samples.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from .compiler import CompiledScene, compile_placement, compile_scene
from .errors import TemplateExhausted
from .geometry import GridSpec, OrientedBox
from .llmsli import CellSpec, Face, GridBlock, SceneProgram, print_llmsli
from .relations import RELATIONS
from .templates import SceneTemplate
from .validator import (
    Footprint,
    ValidationReport,
    aabbs_apart,
    floor_rect,
    footprint,
    footprint_intersect,
    footprint_on_floor,
    validate,
)
from .vocab import Vocabulary, load_vocabulary

SCHEMA_VERSION = 1

_YAWS = (0, 90, 180, 270)

_MAX_ATTEMPTS = 24  # layouts one sample_scene call tries
_OVERSAMPLE = 4  # candidate seeds per requested sample


def derive_subseed(seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SftSample:
    prompt: str
    reasoning: str
    code: str
    validated: bool = True


@dataclass(frozen=True)
class DpoPair:
    prompt: str
    chosen: str
    rejected: str
    injected_errors: tuple[dict, ...]


# ---------------------------------------------------------------------------
# single-scene sampling


class _Draft:
    """Mutable scratch state while one scene is being assembled."""

    def __init__(self, t: SceneTemplate) -> None:
        self.t = t
        # ident -> (i, j, yaw_deg), in placement order
        self.cells: dict[str, tuple[int, int, int]] = {}
        self.boxes: dict[str, OrientedBox] = {}
        self.prints: list[Footprint] = []  # footprint() of each placed box
        self.active_rules: list = []

    def occupied(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.cells.values()}

    def place(
        self, ident: str, i: int, j: int, yaw: int, box: OrientedBox, fp: Footprint
    ) -> None:
        self.cells[ident] = (i, j, yaw)
        self.boxes[ident] = box
        self.prints.append(fp)


def _weighted_draw(pool, n: int, rng: random.Random) -> list[str]:
    remaining = list(pool)
    out: list[str] = []
    for _ in range(n):
        total = sum(w for _, w in remaining)
        pick = rng.random() * total
        for idx, (key, w) in enumerate(remaining):
            pick -= w
            if pick <= 0.0:
                out.append(key)
                del remaining[idx]
                break
        else:
            out.append(remaining[-1][0])
            del remaining[-1]
    return out


def _placement_order(chosen: list[str], rules, rng: random.Random) -> list[str]:
    # rule objects go down first so subjects can be constrained against them
    shuffled = list(chosen)
    rng.shuffle(shuffled)
    indegree = {c: 0 for c in shuffled}
    edges: dict[str, list[str]] = {c: [] for c in shuffled}
    for r in rules:
        edges[r.object].append(r.subject)
        indegree[r.subject] += 1
    queue = [c for c in shuffled if indegree[c] == 0]
    out: list[str] = []
    while queue:
        cur = queue.pop(0)
        out.append(cur)
        for nxt in edges[cur]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    out.extend(c for c in shuffled if c not in out)  # cycle fallback
    return out


def _rule_holds(rule, draft: _Draft, subject_box: OrientedBox) -> bool:
    obj_box = draft.boxes.get(rule.object)
    if obj_box is None:
        return True  # object not placed yet; final gate re-checks
    return RELATIONS[rule.relation](subject_box, obj_box, draft.t.grid.cell_size_m)


def _lowering(
    lowered: dict[tuple[str, int, int, int], tuple[OrientedBox, Footprint, bool]],
    ident: str,
    yaw: int,
    at: tuple[int, int],
    grid: GridSpec,
    vocab: Vocabulary,
    rect: tuple[float, float, float, float],
) -> tuple[OrientedBox, Footprint, bool]:
    """The table's entry for one candidate, lowered on first use.  A table
    holds entries for one template grid and vocabulary."""
    key = (ident, yaw, *at)
    entry = lowered.get(key)
    if entry is None:
        box = compile_placement(CellSpec(ident, yaw), at, grid, vocab)
        fp = footprint(box)
        entry = lowered[key] = (box, fp, footprint_on_floor(fp, rect))
    return entry


def _try_layout(
    t: SceneTemplate, rng: random.Random, vocab: Vocabulary, lowered: dict
) -> _Draft | None:
    n = rng.randint(*t.count_range)
    chosen = _weighted_draw(t.object_pool, n, rng)
    active = [r for r in t.relation_rules if r.subject in chosen and r.object in chosen]
    draft = _Draft(t)
    grid = t.grid
    rect = floor_rect(grid)
    for ident in _placement_order(chosen, active, rng):
        constraints = [r for r in active if r.subject == ident]
        occupied = draft.occupied()
        free = [
            (i, j) for i in range(grid.rows) for j in range(grid.cols) if (i, j) not in occupied
        ]
        rng.shuffle(free)
        done = False
        for i, j in free:
            yaw_order = list(_YAWS)
            rng.shuffle(yaw_order)
            for yaw in yaw_order:
                box, fp, on_floor = _lowering(lowered, ident, yaw, (i, j), grid, vocab, rect)
                if not on_floor:
                    continue
                if any(
                    not aabbs_apart(fp, other) and footprint_intersect(fp, other) is not None
                    for other in draft.prints
                ):
                    continue
                if not all(_rule_holds(r, draft, box) for r in constraints):
                    continue
                draft.place(ident, i, j, yaw, box, fp)
                done = True
                break
            if done:
                break
        if not done:
            return None
    draft.active_rules = active
    return draft


def _surface_items(t: SceneTemplate, draft: _Draft, rng: random.Random) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for rule in t.surface_rules:
        if rule.host in draft.cells and rng.random() < rule.prob:
            out.setdefault(rule.host, []).append(rule.item)
    return out


def _scene_program(t: SceneTemplate, draft: _Draft, surface: dict[str, list[str]]) -> SceneProgram:
    """The draft as a program; each surface host carries its items in a
    one-column block on its top face."""
    rows: list[list[CellSpec | None]] = [[None] * t.grid.cols for _ in range(t.grid.rows)]
    tops: dict[str, GridBlock] = {}
    for ident, (i, j, yaw) in draft.cells.items():
        refs = ()
        if ident in surface:
            name = f"Top{len(tops)}"
            tops[name] = GridBlock(name, tuple((CellSpec(item),) for item in surface[ident]))
            refs = ((name, Face.TOP),)
        rows[i][j] = CellSpec(ident, yaw, sublayout_refs=refs)
    main = GridBlock("main", tuple(tuple(row) for row in rows))
    return SceneProgram(cell_size_m=t.grid.cell_size_m, blocks={"main": main, **tops})


def _names_surface_item(report: ValidationReport, scene: CompiledScene) -> bool:
    """Whether a diagnostic of the report names a placement with a parent."""
    items = {p.id for p in scene.placements if p.parent is not None}
    named = {d.id for d in report.support_failures + report.bounds_violations}
    for c in report.collisions:
        named.update((c.a_id, c.b_id))
    return not items.isdisjoint(named)


def _article(noun: str) -> str:
    return "an" if noun[:1] in "aeiou" else "a"


def _listing(items: list[str]) -> str:
    phrases = []
    for item in items:
        noun = item.replace("_", " ")
        phrases.append(f"{_article(noun)} {noun}")
    if len(phrases) == 1:
        return phrases[0]
    if len(phrases) == 2:
        return f"{phrases[0]} and {phrases[1]}"
    return ", ".join(phrases[:-1]) + f", and {phrases[-1]}"


_RULE_PHRASES = {
    "facing": "The {s} faces the {o}.",
    "in_front_of": "The {s} sits in front of the {o}.",
    "behind": "The {s} sits behind the {o}.",
    "left_of": "The {s} stands to the left of the {o}.",
    "right_of": "The {s} stands to the right of the {o}.",
    "beside": "The {s} stands beside the {o}.",
    "on_top": "The {s} rests on the {o}.",
}


def _prompt_and_reasoning(
    t: SceneTemplate, draft: _Draft, surface: dict[str, list[str]], rng: random.Random
) -> tuple[str, str]:
    mentions = list(draft.cells)
    for host in draft.cells:
        for item in surface.get(host, ()):  # keep the prompt faithful to the code
            mentions.append(f"{item} on the {host.replace('_', ' ')}")
    object_list = _listing(mentions)
    if draft.active_rules:
        rule_text = " ".join(
            _RULE_PHRASES[r.relation].format(
                s=r.subject.replace("_", " "), o=r.object.replace("_", " ")
            )
            for r in draft.active_rules
        )
    else:
        rule_text = "No relative placement constraints apply."
    placement_bits = []
    for ident, (i, j, yaw) in draft.cells.items():
        bit = f"{ident.replace('_', ' ')} at row {i} column {j}"
        if yaw:
            bit += f" turned {yaw} degrees"
        placement_bits.append(bit)
    for host in draft.cells:
        for item in surface.get(host, ()):
            placement_bits.append(
                f"{item.replace('_', ' ')} on top of the {host.replace('_', ' ')}"
            )
    placement_text = "; ".join(placement_bits)
    prompt = rng.choice(t.prompt_templates).format(
        room=t.room_label, object_list=object_list
    )
    reasoning = rng.choice(t.reasoning_templates).format(
        room=t.room_label,
        object_list=object_list,
        rule_text=rule_text,
        placement_text=placement_text,
    )
    return prompt, reasoning


def sample_scene(
    t: SceneTemplate,
    seed: int,
    vocab: Vocabulary | None = None,
    *,
    _lowered: dict | None = None,
) -> SftSample:
    """One validated sample, deterministic in the seed.

    Raises TemplateExhausted when no collision-free arrangement satisfying
    the template's rules is found within the attempt budget.  ``_lowered``
    is a lowering table shared by samples of one template and vocabulary;
    it changes no output.
    """
    vocab = vocab or load_vocabulary()
    lowered = {} if _lowered is None else _lowered
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        draft = _try_layout(t, rng, vocab, lowered)
        if draft is None:
            continue
        surface = _surface_items(t, draft, rng)
        program = _scene_program(t, draft, surface)
        scene = compile_scene(program, vocab)
        report = validate(scene)
        if not report.passed and _names_surface_item(report, scene):
            surface = {}  # retry once without the surface items
            program = _scene_program(t, draft, surface)
            report = validate(compile_scene(program, vocab))
        if not report.passed:
            continue
        if not all(_rule_holds(r, draft, draft.boxes[r.subject]) for r in draft.active_rules):
            continue
        prompt, reasoning = _prompt_and_reasoning(t, draft, surface, rng)
        return SftSample(
            prompt=prompt,
            reasoning=reasoning,
            code=print_llmsli(program),
            validated=True,
        )
    raise TemplateExhausted(
        f"template {t.name!r} produced no valid scene in {_MAX_ATTEMPTS} attempts "
        f"for seed {seed}"
    )


# ---------------------------------------------------------------------------
# dataset assembly


def generate_sft_dataset(
    t: SceneTemplate,
    n: int,
    seed: int,
    vocab: Vocabulary | None = None,
) -> list[SftSample]:
    """Exactly n deduplicated validated samples.

    Candidate index i always uses sub-seed hash(seed, template name, i),
    derived when the candidate is tried; candidates are tried in index order
    and share one lowering table.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    vocab = vocab or load_vocabulary()
    budget = _OVERSAMPLE * n
    lowered: dict = {}
    out: list[SftSample] = []
    seen: set[str] = set()
    for i in range(budget):
        try:
            sample = sample_scene(t, derive_subseed(seed, t.name, i), vocab, _lowered=lowered)
        except TemplateExhausted:
            continue
        if sample.code in seen:
            continue
        seen.add(sample.code)
        out.append(sample)
        if len(out) == n:
            return out
    raise TemplateExhausted(
        f"only {len(out)} of {n} samples possible within a {budget}-candidate budget"
    )


def build_corpus(
    t: SceneTemplate,
    seed: int,
    vocab: Vocabulary,
    n_samples: int,
    n_pairs: int | None = None,
) -> dict[str, list[dict]]:
    """The records of every stage, keyed by stage name, from one sample set.

    `pretrain` and `sft` come from `generate_sft_dataset(t, n_samples, seed)`;
    `dpo` is built from the same samples, and only when n_pairs is given.
    """
    samples = generate_sft_dataset(t, n_samples, seed, vocab)
    corpus = {"pretrain": extract_pretrain_corpus(samples), "sft": extract_sft_pairs(samples)}
    if n_pairs is not None:
        from .errorchain import generate_dpo_pairs  # errorchain imports this module

        corpus["dpo"] = dpo_records(generate_dpo_pairs(samples, seed, vocab, t, n_pairs))
    return corpus


def extract_pretrain_corpus(samples: list[SftSample]) -> list[dict]:
    """Three language-model text records per sample: prompt, reasoning, code."""
    out = []
    for s in samples:
        for text in (s.prompt, s.reasoning, s.code):
            out.append({"schema_version": SCHEMA_VERSION, "text": text})
    return out


def extract_sft_pairs(samples: list[SftSample]) -> list[dict]:
    """Supervision pairs: the reasoning trace is deliberately left out."""
    return [
        {"schema_version": SCHEMA_VERSION, "prompt": s.prompt, "code": s.code}
        for s in samples
    ]


def dpo_records(pairs: list[DpoPair]) -> list[dict]:
    return [
        {
            "schema_version": SCHEMA_VERSION,
            "prompt": p.prompt,
            "chosen": p.chosen,
            "rejected": p.rejected,
            "injected_errors": list(p.injected_errors),
        }
        for p in pairs
    ]


def jsonl_bytes(records: list[dict]) -> bytes:
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":")) for record in records
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
