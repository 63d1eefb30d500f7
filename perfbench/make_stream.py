"""Write the committed check_stream inputs to perfbench/data/stream.json.

    python3 perfbench/make_stream.py [--seed 2024]

The stream is stored rather than made at run time so that a change to the
sampler's random stream leaves the inputs of parent and change identical.
Each entry holds the program text, its known answer and its DRFR checklist:

- ``chosen``: a sampled program; the sampler validates it, so it must pass
  and meet every check of its checklist.
- ``rejected``: its error-chain corruption; the chain only emits programs
  the toolchain rejects, so the answer is ``syntax`` when a syntax error was
  injected (syntax edits come last) and ``invalid`` otherwise.
- ``shell``: a seeded building shell, ``closed`` or with one wall cell
  removed (``gap``, with the cell).

The checklist of a room program names its root objects, the template's
relation rules between them and its surface items on their hosts.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spatialgrammar.compiler import compile_source  # noqa: E402
from spatialgrammar.datagen import generate_sft_dataset  # noqa: E402
from spatialgrammar.drfr import Checklist, AtomicCheck, evaluate_drfr  # noqa: E402
from spatialgrammar.errorchain import generate_dpo_pairs  # noqa: E402
from spatialgrammar.errors import ParseError  # noqa: E402
from spatialgrammar.llmslb import check_closure  # noqa: E402
from spatialgrammar.llmsli import Face, parse_llmsli  # noqa: E402
from spatialgrammar.templates import PACKAGED_TEMPLATES, load_template  # noqa: E402
from spatialgrammar.validator import validate  # noqa: E402
from spatialgrammar.vocab import load_vocabulary  # noqa: E402

STREAM_PATH = HERE / "data" / "stream.json"
CHOSEN_PER_TEMPLATE = 24
REJECTED_PER_TEMPLATE = 24  # half with a syntax error, half without
SHELLS = 36  # half closed, half with a gap
MOUNTS = ("picture_frame", "mirror", "wall_shelf", "air_conditioner")
LIGHTS = ("pendant_light", "ceiling_fan")


def room_checklist(code: str, template, vocab) -> dict:
    """Checks a chosen room program meets: its objects, the template's rules
    between them, and its surface items on their hosts."""
    program = parse_llmsli(code)
    roots = [vocab.lookup(cell.key).identifier for _, _, cell in program.main.occupied()]
    checks = [{"kind": "exist", "subject": ident} for ident in roots]
    for rule in template.relation_rules:
        if rule.subject in roots and rule.object in roots:
            checks.append({"kind": "spatial_relation", "subject": rule.subject,
                           "relation": rule.relation, "object": rule.object})
    for _, _, cell in program.main.occupied():
        host = vocab.lookup(cell.key).identifier
        for block, face in cell.sublayout_refs:
            if face is not Face.TOP:
                continue
            for _, _, item in program.blocks[block].occupied():
                ident = vocab.lookup(item.key).identifier
                checks.append({"kind": "exist", "subject": ident})
                checks.append({"kind": "hierarchy_support", "subject": ident, "object": host})
    return {"checks": checks}


def shell(rng: random.Random, closed: bool) -> tuple[str, list[int] | None, dict]:
    """(text, removed wall cell or None, checklist) of one rectangular shell."""
    rows, cols = rng.randint(6, 10), rng.randint(7, 11)
    grid = [["0"] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if i in (0, rows - 1) or j in (0, cols - 1):
                grid[i][j] = "w"
    if rows >= 7 and rng.random() < 0.5:  # partition wall, away from the ceiling light
        for j in range(cols):
            grid[2][j] = "w"
    grid[rng.randint(3, rows - 2)][0] = "d"
    for i in rng.sample(range(3, rows - 1), rng.randint(1, min(2, rows - 4))):
        grid[i][cols - 1] = "c"
    # mounts and the gap go on the top and bottom walls, clear of corners
    edge = [(i, j) for i in (0, rows - 1) for j in range(2, cols - 2)]
    rng.shuffle(edge)
    blocks, mounted, taken = [], [], set()
    for i, j in edge[: rng.randint(1, 3)]:
        name = f"Art{len(blocks)}"
        item = rng.choice(MOUNTS)
        grid[i][j] = f"w({name}_on_inner)"
        blocks.append((name, item))
        mounted.append(item)
        taken.add((i, j))
    gap = None
    if not closed:
        free = [(i, j) for i, j in edge if all((i, j + d) not in taken for d in (-1, 0, 1))]
        gap = list(free[0])
        grid[gap[0]][gap[1]] = "0"
    light = rng.choice(LIGHTS)
    lines = [f"llmslb grid=1m dims={rows}x{cols} ceiling=Lights", "main:"]
    lines.extend(" ".join(row) for row in grid)
    for name, item in blocks:
        lines += [f"sublayout {name} dims=1x1:", item]
    lines += ["sublayout Lights dims=1x1:", light]
    checklist = {"checks": [{"kind": "exist", "subject": s} for s in mounted + [light]]}
    return "\n".join(lines) + "\n", gap, checklist


def build(seed: int) -> list[dict]:
    vocab = load_vocabulary()
    entries = []
    for name in PACKAGED_TEMPLATES:
        template = load_template(name, vocab)
        samples = generate_sft_dataset(template, 3 * CHOSEN_PER_TEMPLATE, seed, vocab)
        for k, s in enumerate(samples[:CHOSEN_PER_TEMPLATE]):
            entries.append({"id": f"{name}-chosen-{k}", "kind": "chosen", "text": s.code,
                            "expect": "pass", "injected": [], "gap": None,
                            "checklist": room_checklist(s.code, template, vocab)})
        pairs = generate_dpo_pairs(samples, seed, vocab, template)
        with_syntax = [p for p in pairs if any(e["type"] == "syntax" for e in p.injected_errors)]
        without = [p for p in pairs if p not in with_syntax]
        half = REJECTED_PER_TEMPLATE // 2
        for k, p in enumerate(with_syntax[:half] + without[:half]):
            types = [e["type"] for e in p.injected_errors]
            entries.append({"id": f"{name}-rejected-{k}", "kind": "rejected", "text": p.rejected,
                            "expect": "syntax" if "syntax" in types else "invalid",
                            "injected": types, "gap": None,
                            "checklist": room_checklist(p.chosen, template, vocab)})
    rng = random.Random(seed)
    for k in range(SHELLS):
        closed = k % 2 == 0
        text, gap, checklist = shell(rng, closed)
        entries.append({"id": f"shell-{k}", "kind": "shell", "text": text,
                        "expect": "closed" if closed else "gap", "injected": [], "gap": gap,
                        "checklist": checklist})
    return entries


def sanity_check(entries: list[dict], vocab) -> None:
    """Refuse to write a stream whose known answers the toolchain contradicts."""
    for e in entries:
        try:
            program, scene = compile_source(e["text"], vocab)
        except ParseError:
            ok = e["expect"] == "syntax"
        else:
            report = validate(scene)
            if e["kind"] == "shell":
                closure = check_closure(program)
                ok = report.passed and (
                    not closure if e["expect"] == "closed"
                    else len(closure) == 1 and list(closure[0].gap) == e["gap"])
            else:
                ok = report.passed == (e["expect"] == "pass")
            if ok and e["expect"] in ("pass", "closed", "gap"):
                checks = tuple(AtomicCheck.from_dict(c) for c in e["checklist"]["checks"])
                ok = evaluate_drfr(scene, Checklist(checks)).ratio == 1.0
        if not ok:
            raise SystemExit(f"{e['id']}: the toolchain contradicts its known answer")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    entries = build(args.seed)
    sanity_check(entries, load_vocabulary())
    doc = {"seed": args.seed, "programs": entries}
    STREAM_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    kinds = {}
    for e in entries:
        kinds[e["expect"]] = kinds.get(e["expect"], 0) + 1
    print(f"wrote {len(entries)} programs to {STREAM_PATH.name}: {kinds}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
