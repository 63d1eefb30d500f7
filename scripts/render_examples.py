#!/usr/bin/env python3
"""Compile a few showcase programs and write JSON, OBJ, and SVG renders.

The OBJ files open in any mesh viewer; the SVGs are top-down floor plans.
A validation report accompanies each scene.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from spatialgrammar.cli import run_reporting_errors
from spatialgrammar.compiler import compile_source
from spatialgrammar.export import export_scene
from spatialgrammar.validator import report_text, validate
from spatialgrammar.vocab import load_vocabulary

SHOWCASE = {
    "studio": (
        "llmsli grid=1m dims=5x5\n"
        "main:\n"
        "0 0 0 nightstand(Lamp_on_top) 0\n"
        "0 bed@90 0 0 wardrobe\n"
        "0 0 0 0 0\n"
        "0 0 0 0 0\n"
        "0 0 desk@90(Work_on_top) 0 chair@270\n"
        "sublayout Lamp dims=1x1:\n"
        "desk_lamp\n"
        "sublayout Work dims=1x2:\n"
        "monitor laptop@15\n"
    ),
    "lounge": (
        "llmsli grid=1m dims=5x5\n"
        "main:\n"
        "0 sofa@90 0 0 0\n"
        "0 0 0 armchair@225 0\n"
        "bookshelf@90 0 coffee_table(Decor_on_top) 0 0\n"
        "0 0 0 0 0\n"
        "0 tv_stand@270(Screen_on_top) 0 0 plant\n"
        "sublayout Screen dims=1x1:\n"
        "tv\n"
        "sublayout Decor dims=1x2:\n"
        "vase fruit_bowl\n"
    ),
    "shell": (
        "llmslb grid=1m dims=6x8 ceiling=Lights\n"
        "main:\n"
        "w w w c w w d w\n"
        "w 0 0 0 0 0 0 w\n"
        "c 0 0 0 0 0 0 w\n"
        "w 0 0 0 0 0 0 c\n"
        "w(Unit_on_inner) 0 0 0 0 0 0 w\n"
        "w w d w w c w w\n"
        "sublayout Unit dims=1x1:\n"
        "air_conditioner\n"
        "sublayout Lights dims=1x2:\n"
        "pendant_light pendant_light\n"
    ),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("renders"))
    args = ap.parse_args()

    vocab = load_vocabulary()
    args.out.mkdir(parents=True, exist_ok=True)
    for name, source in SHOWCASE.items():
        _, scene = compile_source(source, vocab)
        (args.out / f"{name}.sg").write_text(source, encoding="utf-8")
        for fmt in ("json", "obj", "svg"):
            (args.out / f"{name}.{fmt}").write_bytes(export_scene(scene, fmt))
        report = validate(scene)
        (args.out / f"{name}.report.txt").write_text(report_text(report), encoding="utf-8")
        verdict = "ok" if report.passed else "FAILED"
        print(
            f"{name:8s} {len(scene.placements)} placements, "
            f"{len(scene.structural)} structural: {verdict}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(run_reporting_errors(main))
