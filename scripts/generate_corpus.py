#!/usr/bin/env python3
"""Produce the full training corpus for one room template.

Writes three JSONL files plus a manifest into --out:

    pretrain.jsonl   prompt / reasoning / code documents, three per sample
    sft.jsonl        prompt -> code pairs
    dpo.jsonl        prompt, chosen, rejected (verified-invalid) triples

Every record derives from the same seeded sample set, so reruns with the
same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from spatialgrammar.cli import run_reporting_errors
from spatialgrammar.datagen import (
    dpo_records,
    extract_pretrain_corpus,
    extract_sft_pairs,
    generate_sft_dataset,
    jsonl_bytes,
)
from spatialgrammar.errorchain import generate_dpo_pairs
from spatialgrammar.templates import load_template
from spatialgrammar.vocab import load_vocabulary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("corpus"))
    ap.add_argument("--template", default="living_room")
    ap.add_argument("--sft-n", type=int, default=2_800)
    ap.add_argument("--dpo-n", type=int, default=9_000)
    ap.add_argument("--seed", type=int, default=20_24)
    ap.add_argument("--vocab", default=None, help="path to an object vocabulary TSV")
    args = ap.parse_args()
    for flag, value, least in (("--sft-n", args.sft_n, 1), ("--dpo-n", args.dpo_n, 1)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2

    vocab = load_vocabulary(args.vocab)
    template = load_template(args.template, vocab)
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    samples = generate_sft_dataset(template, args.sft_n, args.seed, vocab)
    print(f"sampled {len(samples)} scenes in {time.monotonic() - t0:.1f}s", file=sys.stderr)

    pairs = generate_dpo_pairs(samples, args.seed, vocab, template, args.dpo_n)

    manifest = {"template": args.template, "seed": args.seed, "files": {}}
    stages = {
        "pretrain.jsonl": extract_pretrain_corpus(samples),
        "sft.jsonl": extract_sft_pairs(samples),
        "dpo.jsonl": dpo_records(pairs),
    }
    for name, records in stages.items():
        blob = jsonl_bytes(records)
        (args.out / name).write_bytes(blob)
        manifest["files"][name] = {
            "records": len(records),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        print(f"wrote {len(records):6d} records to {args.out / name}", file=sys.stderr)

    (args.out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"done in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run_reporting_errors(main))
