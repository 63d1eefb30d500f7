"""The sgc command: compile, validate, generate, and evaluate from the shell.

Artifacts go to stdout (or a file), diagnostics to stderr.  Exit codes:
0 success, 1 validation failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .compiler import CompilerConfig, compile_building, compile_source, parse_source
from .drfr import evaluate_cumulative, evaluate_drfr, load_checklists
from .errors import (
    OrphanOpeningError,
    ParseError,
    SpatialGrammarError,
)
from .export import canonical_json, export_scene, load_scene_json
from .llmslb import check_closure, parse_llmslb
from .llmsli import program_stats
from .templates import load_template
from .validator import ValidatorConfig, report_text, validate
from .vocab import load_vocabulary

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgc", description="SpatialGrammar scene compiler toolchain"
    )
    parser.add_argument("--version", action="version", version=f"sgc {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--vocab", help="path to an object vocabulary TSV", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", parents=[common], help="compile a program to a scene")
    p.add_argument("file")
    p.add_argument("--out", choices=("json", "obj", "svg"), default="json")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.add_argument("--ceiling", type=float, default=None, help="ceiling height in meters")

    p = sub.add_parser("validate", parents=[common], help="compile and run all checks")
    p.add_argument("file")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--eps", type=float, default=None, help="collision tolerance in meters")
    p.add_argument("--tol", type=float, default=None, help="support tolerance in meters")

    p = sub.add_parser(
        "check-building", parents=[common], help="closure and opening analysis"
    )
    p.add_argument("file")

    p = sub.add_parser("gen-data", parents=[common], help="emit a seeded JSONL dataset")
    p.add_argument("--template", required=True, help="packaged template name or JSON path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stage", choices=("sft", "pretrain", "dpo"), default="sft")
    p.add_argument("--out", default=None, help="output path (default <stage>.jsonl)")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument(
        "--base-n",
        type=int,
        default=None,
        help="for --stage dpo: size of the underlying sample set (default --n)",
    )

    p = sub.add_parser("eval", parents=[common], help="score a scene against a checklist")
    p.add_argument("--scene", action="append", required=True, help="scene JSON or program file")
    p.add_argument("--checklist", required=True)

    p = sub.add_parser("stats", parents=[common], help="token and structure counts")
    p.add_argument("file")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(data: bytes, output: str | None) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _cmd_compile(args) -> int:
    vocab = load_vocabulary(args.vocab)
    config = CompilerConfig(ceiling_height_m=args.ceiling) if args.ceiling else None
    _, scene = compile_source(_read(args.file), vocab, config)
    for w in scene.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(export_scene(scene, args.out), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    vocab = load_vocabulary(args.vocab)
    program, scene = compile_source(_read(args.file), vocab)
    config = ValidatorConfig(
        eps=args.eps if args.eps is not None else ValidatorConfig.eps,
        tol=args.tol if args.tol is not None else ValidatorConfig.tol,
        floor_extent_m=getattr(program, "floor_extent_m", None),
    )
    report = validate(scene, config)
    if args.report == "json":
        sys.stdout.write(canonical_json(report.to_dict()) + "\n")
    else:
        sys.stdout.write(report_text(report))
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_check_building(args) -> int:
    vocab = load_vocabulary(args.vocab)
    try:
        building = parse_llmslb(_read(args.file))
    except OrphanOpeningError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_INVALID
    diagnostics = check_closure(building)
    scene = compile_building(building, vocab)
    print(
        f"walls: {len(scene.structural)}  openings: {len(scene.openings)}  "
        f"mounted: {len(scene.placements)}"
    )
    for d in diagnostics:
        print(f"finding: {d.message}")
    return EXIT_INVALID if diagnostics else EXIT_OK


def _cmd_gen_data(args) -> int:
    from .datagen import (
        dpo_records,
        extract_pretrain_corpus,
        extract_sft_pairs,
        generate_sft_dataset,
        jsonl_bytes,
    )

    for flag, value in (("--n", args.n), ("--base-n", args.base_n)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_USAGE
    vocab = load_vocabulary(args.vocab)
    template = load_template(args.template, vocab)
    out_path = args.out or f"{args.stage}.jsonl"
    if args.stage == "dpo":
        from .errorchain import generate_dpo_pairs

        base_n = args.n if args.base_n is None else args.base_n
        samples = generate_sft_dataset(
            template, base_n, args.seed, vocab, workers=args.workers
        )
        records = dpo_records(generate_dpo_pairs(samples, args.seed, vocab, template, args.n))
    else:
        samples = generate_sft_dataset(
            template, args.n, args.seed, vocab, workers=args.workers
        )
        if args.stage == "pretrain":
            records = extract_pretrain_corpus(samples)
        else:
            records = extract_sft_pairs(samples)
    with open(out_path, "wb") as fh:
        fh.write(jsonl_bytes(records))
    print(f"wrote {len(records)} records to {out_path}", file=sys.stderr)
    return EXIT_OK


def _load_scene_arg(path: str, vocab) -> tuple:
    if path.endswith(".json"):
        with open(path, "rb") as fh:
            return load_scene_json(fh.read(), vocab)
    _, scene = compile_source(_read(path), vocab)
    return scene


def _cmd_eval(args) -> int:
    vocab = load_vocabulary(args.vocab)
    scenes = [_load_scene_arg(p, vocab) for p in args.scene]
    checklists = load_checklists(args.checklist)
    if len(checklists) == 1 and len(scenes) == 1:
        results = [evaluate_drfr(scenes[0], checklists[0])]
    else:
        results = evaluate_cumulative(scenes, checklists)
    doc = {
        "turns": [r.to_dict() for r in results],
        "final_ratio": results[-1].ratio,
    }
    sys.stdout.write(canonical_json(doc) + "\n")
    return EXIT_OK


def _cmd_stats(args) -> int:
    program = parse_source(_read(args.file))
    sys.stdout.write(canonical_json(program_stats(program)) + "\n")
    return EXIT_OK


_COMMANDS = {
    "compile": _cmd_compile,
    "validate": _cmd_validate,
    "check-building": _cmd_check_building,
    "gen-data": _cmd_gen_data,
    "eval": _cmd_eval,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpatialGrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
