#!/usr/bin/env python3
"""Produce the full training corpus for one room template.

Writes three JSONL files plus a manifest into --out:

    pretrain.jsonl   prompt / reasoning / code documents, three per sample
    sft.jsonl        prompt -> code pairs
    dpo.jsonl        prompt, chosen, rejected (verified-invalid) triples

All three come from one `spatialgrammar.datagen.build_corpus` call, the
same pipeline `sgc gen-data` runs: every record derives from one seeded
sample set, so reruns with the same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from spatialgrammar.cli import run_reporting_errors
from spatialgrammar.datagen import build_corpus, jsonl_bytes
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
    manifest = {"template": args.template, "seed": args.seed, "files": {}}
    corpus = build_corpus(template, args.seed, vocab, args.sft_n, args.dpo_n)
    for stage, records in corpus.items():
        name = f"{stage}.jsonl"
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
