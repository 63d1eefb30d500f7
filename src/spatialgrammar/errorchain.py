"""Typed corruption of valid programs into verified-invalid ones.

Four error families mirror the ways generated code actually goes wrong:
semantic (an object that does not belong in the room), spatial (a recorded
relation rule broken), collision (two footprints forced to overlap), and
syntax (a corrupted lexeme).  A chain injects two or three distinct types
and then re-runs the toolchain to prove the result really fails; chains
that merely bend a relation without tripping the validator are re-rolled
with a fresh sub-seed, so every emitted rejected program is checkably bad.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from enum import Enum

from .compiler import CompiledScene, compile_placement, compile_scene
from .datagen import DpoPair, SftSample, derive_subseed
from .errors import (
    ChainFailed,
    CompileError,
    InjectionFailed,
    ParseError,
    SpatialGrammarError,
    VocabError,
)
from .llmsli import CellSpec, GridBlock, SceneProgram, parse_llmsli, print_llmsli
from .relations import check_relation
from .templates import SceneTemplate
from .validator import check_collisions, obb_intersect, validate
from .vocab import Vocabulary, load_vocabulary

log = logging.getLogger(__name__)


class ErrorType(str, Enum):
    SEMANTIC = "semantic"
    SPATIAL = "spatial"
    COLLISION = "collision"
    SYNTAX = "syntax"


# syntax edits go last so earlier injections still see parseable text
CHAIN_ORDER = (ErrorType.SEMANTIC, ErrorType.SPATIAL, ErrorType.COLLISION, ErrorType.SYNTAX)

_CHAIN_SIZES = (2, 3)

_MAX_RETRIES = 16  # chain re-rolls before error_chain gives up


# ---------------------------------------------------------------------------
# program surgery


def _with_cell(p: SceneProgram, block: str, i: int, j: int, cell: CellSpec | None) -> SceneProgram:
    rows = [list(r) for r in p.blocks[block].rows]
    rows[i][j] = cell
    blocks = dict(p.blocks)
    blocks[block] = GridBlock(name=block, rows=tuple(tuple(r) for r in rows))
    return SceneProgram(
        cell_size_m=p.cell_size_m, blocks=blocks, floor_extent_m=p.floor_extent_m
    )


# ---------------------------------------------------------------------------
# program injectors: each takes the compiled unedited program


def _inject_semantic(
    scene: CompiledScene, rng: random.Random, vocab: Vocabulary, template: SceneTemplate | None
) -> tuple[SceneProgram, str]:
    """Swap one object for something that does not belong in this room."""
    p = scene.program
    targets = list(p.main.occupied())
    if not targets:
        raise InjectionFailed("no objects to replace")
    rng.shuffle(targets)
    baseline = len(check_collisions(scene))
    if template is not None:
        allowed = {key for key, _ in template.object_pool}
        allowed.update(r.item for r in template.surface_rules)
        allowed.update(r.host for r in template.surface_rules)
    else:
        allowed = None
    for i, j, cell in targets:
        old_entry = vocab.lookup(cell.key)
        old = old_entry.identifier
        candidates = []
        for entry in vocab:
            if entry.identifier == old:
                continue
            if allowed is not None:
                if entry.identifier not in allowed:
                    candidates.append(entry.identifier)
            elif entry.category is not old_entry.category:
                candidates.append(entry.identifier)
        candidates.sort()
        rng.shuffle(candidates)
        for new_ident in candidates:
            replaced = _with_cell(
                p,
                "main",
                i,
                j,
                CellSpec(
                    key=new_ident, yaw_deg=cell.yaw_deg, sublayout_refs=cell.sublayout_refs
                ),
            )
            try:
                # the swap must stand on its own: no accidental collisions
                if len(check_collisions(compile_scene(replaced, vocab))) != baseline:
                    continue
            except SpatialGrammarError:
                continue
            return replaced, f"replaced the {old} with a {new_ident}"
    raise InjectionFailed("no collision-neutral replacement object found")


def _inject_spatial(
    scene: CompiledScene, rng: random.Random, vocab: Vocabulary, template: SceneTemplate | None
) -> tuple[SceneProgram, str]:
    """Break one of the template's recorded relation rules."""
    if template is None or not template.relation_rules:
        raise InjectionFailed("no recorded relation rules to break")
    p = scene.program
    present = {pl.identifier for pl in scene.placements}
    rules = [
        r
        for r in template.relation_rules
        if r.subject in present and r.object in present
        and check_relation(scene, r.relation, r.subject, r.object)
    ]
    if not rules:
        raise InjectionFailed("no satisfied relation rule present")
    rng.shuffle(rules)
    baseline = len(check_collisions(scene))
    positions = {
        vocab.lookup(cell.key).identifier: (i, j, cell) for i, j, cell in p.main.occupied()
    }
    for rule in rules:
        edits = []  # (moves the subject, i, j, cell, what)
        for ident in (rule.subject, rule.object):
            if ident in positions:
                i, j, cell = positions[ident]
                flipped = dataclasses.replace(cell, yaw_deg=(cell.yaw_deg + 180) % 360)
                edits.append((False, i, j, flipped, f"turned the {ident} around"))
        si, sj, scell = positions[rule.subject]
        free = [
            (i, j)
            for i in range(p.main.n_rows)
            for j in range(p.main.n_cols)
            if p.main.rows[i][j] is None
        ]
        rng.shuffle(free)
        for ni, nj in free[:12]:
            edits.append((True, ni, nj, scell, f"moved the {rule.subject} across the room"))
        rng.shuffle(edits)
        for move, i, j, new_cell, what in edits:
            base = _with_cell(p, "main", si, sj, None) if move else p
            candidate = _with_cell(base, "main", i, j, new_cell)
            try:
                cscene = compile_scene(candidate, vocab)
            except SpatialGrammarError:
                continue
            if len(check_collisions(cscene)) != baseline:
                continue
            if check_relation(cscene, rule.relation, rule.subject, rule.object):
                continue
            return candidate, (
                f"{what}, so the {rule.subject} is no longer "
                f"{rule.relation.replace('_', ' ')} the {rule.object}"
            )
    raise InjectionFailed("could not break any relation rule cleanly")


def _inject_collision(
    scene: CompiledScene, rng: random.Random, vocab: Vocabulary, template: SceneTemplate | None
) -> tuple[SceneProgram, str]:
    """Relocate one object so its footprint provably overlaps another's.

    A root box depends only on its cell, its grid position and the default
    ceiling, so each candidate move tests two boxes from compile_placement;
    a move never changes whether the program compiles, so the compile of the
    unedited program stands for them all."""
    p = scene.program
    objects = list(p.main.occupied())
    if len(objects) < 2:
        raise InjectionFailed("need two objects for a collision")
    grid = p.grid
    rng.shuffle(objects)
    for ai, aj, acell in objects:
        others = [o for o in objects if (o[0], o[1]) != (ai, aj)]
        rng.shuffle(others)
        for bi, bj, bcell in others:
            b_box = compile_placement(bcell, (bi, bj), grid, vocab)
            neighbors = [
                (bi + di, bj + dj)
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0)
            ]
            rng.shuffle(neighbors)
            for ni, nj in neighbors:
                if not (0 <= ni < p.main.n_rows and 0 <= nj < p.main.n_cols):
                    continue
                if p.main.rows[ni][nj] is not None or (ni, nj) == (ai, aj):
                    continue
                a_box = compile_placement(acell, (ni, nj), grid, vocab)
                if obb_intersect(a_box, b_box) is None:
                    continue
                moved = _with_cell(_with_cell(p, "main", ai, aj, None), "main", ni, nj, acell)
                a_ident = vocab.lookup(acell.key).identifier
                b_ident = vocab.lookup(bcell.key).identifier
                return moved, (
                    f"moved the {a_ident} next to the {b_ident} so their footprints overlap"
                )
    raise InjectionFailed("no relocation produced an overlap")


_PROGRAM_INJECTORS = {
    ErrorType.SEMANTIC: _inject_semantic,
    ErrorType.SPATIAL: _inject_spatial,
    ErrorType.COLLISION: _inject_collision,
}


def _corrupt_lines(text: str, rng: random.Random) -> tuple[str, str] | None:
    lines = text.splitlines()
    header_idx = next((k for k, ln in enumerate(lines) if ln.strip()), None)
    if header_idx is None:
        return None
    grid_rows = [
        k
        for k, ln in enumerate(lines)
        if ln.strip() and not ln.strip().endswith(":") and k != header_idx
        and not ln.lstrip().startswith("#")
    ]
    block_heads = [k for k, ln in enumerate(lines) if ln.strip().endswith(":")]
    edits = []
    if block_heads:
        def drop_colon(ls, k=rng.choice(block_heads)):
            ls[k] = ls[k].rstrip()[:-1]
            return "removed the colon that opens a block"
        edits.append(drop_colon)
    if len(grid_rows) >= 2:
        def merge_rows(ls, k=rng.choice(grid_rows[:-1])):
            ls[k] = ls[k] + " " + ls.pop(k + 1)
            return "merged two grid rows into one line"
        edits.append(merge_rows)
    if grid_rows:
        def maim_token(ls, k=rng.choice(grid_rows)):
            parts = ls[k].split()
            parts[rng.randrange(len(parts))] = "sofa[1.2x"
            ls[k] = " ".join(parts)
            return "left a size annotation unterminated"
        edits.append(maim_token)

        def stray_at(ls, k=rng.choice(grid_rows)):
            parts = ls[k].split()
            idx = rng.randrange(len(parts))
            parts[idx] = parts[idx] + "@"
            ls[k] = " ".join(parts)
            return "appended a bare rotation marker to a token"
        edits.append(stray_at)

    def break_header(ls):
        ls[header_idx] = ls[header_idx].replace("grid=", "grid= ", 1)
        return "detached the grid size from its key"
    edits.append(break_header)

    pick = rng.choice(edits)
    out = list(lines)
    what = pick(out)
    return "\n".join(out) + "\n", what


def _inject_syntax(text: str, rng: random.Random) -> tuple[str, str]:
    for _ in range(8):
        result = _corrupt_lines(text, rng)
        if result is None:
            break
        corrupted, what = result
        try:
            parse_llmsli(corrupted)
        except ParseError:
            return corrupted, what
    raise InjectionFailed("no corruption made the text unparseable")


# ---------------------------------------------------------------------------
# public surface


def inject_error(
    code: str,
    error_type: ErrorType | str,
    seed: int,
    vocab: Vocabulary | None = None,
    template: SceneTemplate | None = None,
) -> tuple[str, str]:
    """Apply one typed corruption; returns (new code, what was done)."""
    error_type = ErrorType(error_type)
    vocab = vocab or load_vocabulary()
    rng = random.Random(seed)
    if error_type is ErrorType.SYNTAX:
        return _inject_syntax(code, rng)
    try:
        scene = compile_scene(parse_llmsli(code), vocab)
    except SpatialGrammarError:
        raise InjectionFailed("the program does not compile") from None
    program, what = _PROGRAM_INJECTORS[error_type](scene, rng, vocab, template)
    return print_llmsli(program), what


def classify_failure(code: str, vocab: Vocabulary | None = None) -> str:
    """How the toolchain rejects this program: syntax, compile, collision,
    support, bounds, or none."""
    vocab = vocab or load_vocabulary()
    try:
        program = parse_llmsli(code)
    except ParseError:
        return "syntax"
    try:
        scene = compile_scene(program, vocab)
    except (CompileError, VocabError):
        return "compile"
    report = validate(scene)
    if report.collisions:
        return "collision"
    if report.support_failures:
        return "support"
    if report.bounds_violations:
        return "bounds"
    return "none"


def error_chain(
    s_w: str,
    seed: int,
    vocab: Vocabulary | None = None,
    template: SceneTemplate | None = None,
) -> tuple[str, list[dict]]:
    """2-3 distinct typed injections, re-rolled until the result verifiably
    fails the toolchain."""
    vocab = vocab or load_vocabulary()

    # not every scene supports every corruption (a rule-free layout has no
    # relation to break, tiny objects may never reach an overlap), so probe
    # once and only sample chains from the types that can actually apply
    feasible: list[ErrorType] = []
    probe = derive_subseed(seed, "probe", 0)
    for t in CHAIN_ORDER:
        try:
            inject_error(s_w, t, probe, vocab, template)
        except InjectionFailed:
            continue
        feasible.append(t)
    if len(feasible) < 2:
        raise ChainFailed(f"only {len(feasible)} corruption types apply to this scene")

    sizes = [k for k in _CHAIN_SIZES if k <= len(feasible)]
    for attempt in range(_MAX_RETRIES):
        sub = derive_subseed(seed, "chain", attempt)
        rng = random.Random(sub)
        k = rng.choice(sizes)
        picked = rng.sample(feasible, k)
        types = [t for t in CHAIN_ORDER if t in picked]
        code = s_w
        errors: list[dict] = []
        try:
            for t in types:
                code, what = inject_error(
                    code, t, derive_subseed(sub, t.value, 0), vocab, template
                )
                errors.append({"type": t.value, "description": what})
        except InjectionFailed:
            continue
        if classify_failure(code, vocab) != "none":
            return code, errors
    raise ChainFailed(f"no verifiably invalid corruption found in {_MAX_RETRIES} tries")


def generate_dpo_pairs(
    samples: list[SftSample],
    seed: int,
    vocab: Vocabulary | None = None,
    template: SceneTemplate | None = None,
    n: int | None = None,
) -> list[DpoPair]:
    """Exactly n distinct verified preference pairs (default one per sample).

    Variant v of sample i uses sub-seed hash(seed, "dpo<v>", i); variant 0 runs
    over every sample, then variant 1, and so on until n pairs are kept.  A
    pair whose (chosen, rejected) is already kept is skipped.  Raises
    ChainFailed when a whole variant round adds no pair."""
    vocab = vocab or load_vocabulary()
    n = len(samples) if n is None else n
    out: list[DpoPair] = []
    seen: set[tuple[str, str]] = set()
    attempts = failed = 0
    variant = 0
    while len(out) < n:
        kept = len(out)
        for index, sample in enumerate(samples):
            attempts += 1
            try:
                rejected, errors = error_chain(
                    sample.code,
                    derive_subseed(seed, f"dpo{variant}", index),
                    vocab,
                    template,
                )
            except ChainFailed:
                failed += 1
                continue
            if (sample.code, rejected) in seen:
                continue
            seen.add((sample.code, rejected))
            out.append(
                DpoPair(
                    prompt=sample.prompt,
                    chosen=sample.code,
                    rejected=rejected,
                    injected_errors=tuple(errors),
                )
            )
            if len(out) == n:
                break
        if len(out) == kept:
            raise ChainFailed(
                f"variant {variant} added no pair; only {kept} of {n} pairs possible"
            )
        variant += 1
    if failed:
        log.warning("error chain gave up on %d of %d attempts", failed, attempts)
    return out
