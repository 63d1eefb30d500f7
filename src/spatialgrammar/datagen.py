"""Seeded synthetic data: constructive scene sampling and corpus assembly.

Every sample comes from its own sub-seed derived by hashing (seed, tag,
index), so a dataset is reproducible record for record no matter whether it
was generated serially or across processes.  Scenes are built
constructively: objects are placed one at a time, each candidate cell
checked against the already placed boxes and the template's relation rules,
and the finished program must pass the full validator before it is emitted.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from .compiler import compile_scene
from .errors import TemplateExhausted
from .geometry import OrientedBox, Vec3
from .llmsli import parse_llmsli, print_llmsli
from .relations import RELATIONS
from .templates import SceneTemplate, SurfaceRule
from .validator import obb_intersect, validate
from .vocab import Vocabulary, load_vocabulary

SCHEMA_VERSION = 1

_YAWS = (0, 90, 180, 270)


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

    def __init__(self, t: SceneTemplate, vocab: Vocabulary) -> None:
        self.t = t
        self.vocab = vocab
        self.cells: dict[str, tuple[int, int, int]] = {}  # ident -> (i, j, yaw_deg)
        self.boxes: dict[str, OrientedBox] = {}
        self.order: list[str] = []
        self.active_rules: list = []

    def occupied(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.cells.values()}

    def place(self, ident: str, i: int, j: int, yaw: int, box: OrientedBox) -> None:
        self.cells[ident] = (i, j, yaw)
        self.boxes[ident] = box
        self.order.append(ident)


class _RulePlacement:
    """Just enough of a placement for the relation predicates."""

    __slots__ = ("id", "identifier", "box", "parent")

    def __init__(self, ident: str, box: OrientedBox) -> None:
        self.id = ident
        self.identifier = ident
        self.box = box
        self.parent = None


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
    a = _RulePlacement(rule.subject, subject_box)
    b = _RulePlacement(rule.object, obj_box)
    return RELATIONS[rule.relation](a, b, draft.t.grid.cell_size_m)


def _try_layout(t: SceneTemplate, rng: random.Random, vocab: Vocabulary) -> _Draft | None:
    n = rng.randint(*t.count_range)
    chosen = _weighted_draw(t.object_pool, n, rng)
    active = [r for r in t.relation_rules if r.subject in chosen and r.object in chosen]
    draft = _Draft(t, vocab)
    grid = t.grid
    for ident in _placement_order(chosen, active, rng):
        entry = vocab.lookup(ident)
        constraints = [r for r in active if r.subject == ident]
        free = [
            (i, j)
            for i in range(grid.rows)
            for j in range(grid.cols)
            if (i, j) not in draft.occupied()
        ]
        rng.shuffle(free)
        done = False
        for i, j in free:
            yaw_order = list(_YAWS)
            rng.shuffle(yaw_order)
            for yaw in yaw_order:
                x, y = grid.cell_center(i, j)
                box = OrientedBox(
                    center=Vec3(x, y, entry.default_size.z / 2.0),
                    size=entry.default_size,
                    yaw=math.radians(yaw),
                )
                if any(
                    obb_intersect(box, other) is not None for other in draft.boxes.values()
                ):
                    continue
                if not all(_rule_holds(r, draft, box) for r in constraints):
                    continue
                draft.place(ident, i, j, yaw, box)
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


def _build_source(t: SceneTemplate, draft: _Draft, surface: dict[str, list[str]]) -> str:
    grid = t.grid
    tokens = [["0"] * grid.cols for _ in range(grid.rows)]
    block_of: dict[str, str] = {}
    for k, host in enumerate(h for h in draft.order if h in surface):
        block_of[host] = f"Top{k}"
    for ident, (i, j, yaw) in draft.cells.items():
        tok = ident
        if yaw:
            tok += f"@{yaw}"
        if ident in block_of:
            tok += f"({block_of[ident]}_on_top)"
        tokens[i][j] = tok
    g = grid.cell_size_m
    g_txt = str(int(g)) if g == int(g) else repr(g)
    lines = [f"llmsli grid={g_txt}m dims={grid.rows}x{grid.cols}", "main:"]
    lines.extend(" ".join(row) for row in tokens)
    for host, name in block_of.items():
        items = surface[host]
        lines.append(f"sublayout {name} dims={len(items)}x1:")
        lines.extend(items)
    return "\n".join(lines) + "\n"


_NUM_WORDS = {2: "two", 3: "three", 4: "four", 5: "five", 6: "six"}


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
    mentions = list(draft.order)
    for host in draft.order:
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
    for ident in draft.order:
        i, j, yaw = draft.cells[ident]
        bit = f"{ident.replace('_', ' ')} at row {i} column {j}"
        if yaw:
            bit += f" turned {yaw} degrees"
        placement_bits.append(bit)
    for host in draft.order:
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
    max_attempts: int = 24,
) -> SftSample:
    """One validated sample, deterministic in the seed.

    Raises TemplateExhausted when no collision-free arrangement satisfying
    the template's rules is found within the attempt budget.
    """
    vocab = vocab or load_vocabulary()
    rng = random.Random(seed)
    for _ in range(max_attempts):
        draft = _try_layout(t, rng, vocab)
        if draft is None:
            continue
        surface = _surface_items(t, draft, rng)
        source = _build_source(t, draft, surface)
        program = parse_llmsli(source)
        scene = compile_scene(program, vocab)
        report = validate(scene)
        if not report.passed:
            surface = {}
            source = _build_source(t, draft, surface)
            program = parse_llmsli(source)
            scene = compile_scene(program, vocab)
            report = validate(scene)
        if not report.passed:
            continue
        if not all(
            RELATIONS[r.relation](
                _RulePlacement(r.subject, draft.boxes[r.subject]),
                _RulePlacement(r.object, draft.boxes[r.object]),
                t.grid.cell_size_m,
            )
            for r in draft.active_rules
        ):
            continue
        prompt, reasoning = _prompt_and_reasoning(t, draft, surface, rng)
        return SftSample(
            prompt=prompt,
            reasoning=reasoning,
            code=print_llmsli(program),
            validated=True,
        )
    raise TemplateExhausted(
        f"template {t.name!r} produced no valid scene in {max_attempts} attempts "
        f"for seed {seed}"
    )


# ---------------------------------------------------------------------------
# dataset assembly


def _sample_or_none(args) -> SftSample | None:
    t, sub_seed, vocab = args
    try:
        return sample_scene(t, sub_seed, vocab)
    except TemplateExhausted:
        return None


def generate_sft_dataset(
    t: SceneTemplate,
    n: int,
    seed: int,
    vocab: Vocabulary | None = None,
    workers: int = 0,
    oversample: int = 4,
) -> list[SftSample]:
    """Exactly n deduplicated validated samples.

    Candidate index i always uses sub-seed hash(seed, template name, i), and
    candidates are consumed in index order, so worker count never changes
    the output.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    vocab = vocab or load_vocabulary()
    budget = oversample * n
    args = [(t, derive_subseed(seed, t.name, i), vocab) for i in range(budget)]
    out: list[SftSample] = []
    seen: set[str] = set()

    def consume(results) -> bool:
        for sample in results:
            if sample is None or sample.code in seen:
                continue
            seen.add(sample.code)
            out.append(sample)
            if len(out) == n:
                return True
        return False

    if workers <= 1:
        for arg in args:
            if consume([_sample_or_none(arg)]):
                break
    else:
        from concurrent.futures import ProcessPoolExecutor

        block = max(workers * 8, 32)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for start in range(0, budget, block):
                results = list(pool.map(_sample_or_none, args[start : start + block]))
                if consume(results):
                    break
    if len(out) < n:
        raise TemplateExhausted(
            f"only {len(out)} of {n} samples possible within a {budget}-candidate budget"
        )
    return out


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
