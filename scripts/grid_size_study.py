#!/usr/bin/env python3
"""Sweep BEV cell sizes over a fixed floor and measure program compactness.

For each cell size the floor divides into a coarser or finer grid; scenes
sampled from the same template are then printed canonically and measured.
Larger cells buy shorter programs at the cost of placement resolution,
which is the trade this table quantifies.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics
import sys

from spatialgrammar.cli import run_reporting_errors
from spatialgrammar.datagen import derive_subseed, sample_scene
from spatialgrammar.geometry import GridSpec, grid_dimensions
from spatialgrammar.llmsli import parse_llmsli, print_llmsli, program_stats
from spatialgrammar.templates import load_template
from spatialgrammar.vocab import load_vocabulary


def parse_floor(s: str) -> tuple[float, float]:
    a, _, b = s.partition("x")
    return (float(a), float(b))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--floor", type=parse_floor, default=(6.0, 6.0), help="WxD meters")
    ap.add_argument(
        "--cells",
        type=lambda s: [float(v) for v in s.split(",")],
        default=[0.5, 0.75, 1.0, 1.5, 2.0],
        help="comma-separated cell sizes in meters",
    )
    ap.add_argument("--template", default="living_room")
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    if not all(math.isfinite(v) and v > 0 for v in args.floor):
        print(f"error: --floor must be two finite positive lengths, got {args.floor}",
              file=sys.stderr)
        return 2

    vocab = load_vocabulary()
    base = load_template(args.template, vocab)
    templates = []
    for cell in args.cells:
        rows, cols = grid_dimensions(args.floor, cell)
        if rows < 1 or cols < 1:
            print(f"error: a {args.floor[0]:g}m x {args.floor[1]:g}m floor holds no "
                  f"{cell:g}m cell", file=sys.stderr)
            return 2
        templates.append(dataclasses.replace(base, grid=GridSpec(cell, rows, cols)))
    # every row is measured before any is printed, so a failing sample ends in
    # one error line rather than a partial table
    table = [f"{'cell':>6}  {'grid':>7}  {'tokens':>10}  {'chars':>10}  {'objects':>7}"]
    for template in templates:
        cell, rows, cols = template.grid.cell_size_m, template.grid.rows, template.grid.cols
        tokens, chars, objects = [], [], []
        for k in range(args.samples):
            sample = sample_scene(template, derive_subseed(args.seed, "study", k), vocab)
            stats = program_stats(parse_llmsli(sample.code))
            tokens.append(stats["token_count"])
            chars.append(stats["char_count"])
            objects.append(stats["occupied_cells"])
        table.append(
            f"{cell:>5.2f}m  {rows:>3}x{cols:<3}  "
            f"{statistics.mean(tokens):>7.1f} tk  {statistics.mean(chars):>7.1f} ch  "
            f"{statistics.mean(objects):>7.1f}"
        )
    print(f"floor {args.floor[0]:g}m x {args.floor[1]:g}m, "
          f"{args.samples} samples per size", file=sys.stderr)
    print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(run_reporting_errors(main))
