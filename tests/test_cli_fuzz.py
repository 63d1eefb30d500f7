"""Boundary fuzz: any bytes in any file sgc reads end in exit 0, 1 or 2.

The CLI counterpart of the parser fuzz in acceptance criterion 11.  Each
example writes arbitrary bytes, or a JSON document of arbitrary shape, into
one input file and runs ``cli.main`` in-process; an exception escaping
``main`` fails the test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from spatialgrammar.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, main

ROOM = "llmsli grid=1m dims=2x2\nmain:\nsofa 0\n0 chair\n"
CHECKLIST = {"checks": [{"id": "c1", "kind": "exist", "subject": "sofa"}]}

# Field names of every JSON input kind, so generated objects sometimes get
# past the first key lookup of a scene, checklist or template loader.
_KEYS = st.sampled_from(
    ["grid", "name", "rows", "cols", "cell_size", "object_pool", "count_range", "key",
     "prompt_templates", "reasoning_templates", "placements", "checks", "id", "kind",
     "subject", "params", "center", "size", "yaw"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=6),
    max_leaves=16,
)
_BYTES = st.binary(max_size=200) | _JSON.map(lambda v: json.dumps(v).encode("utf-8"))

# (fuzzed file name, argv); {in} is the fuzzed file, {dir} a scratch directory
# holding room.sg and cl.json.
TARGETS = {
    "compile": ("p.sg", ["compile", "{in}", "-o", "{dir}/out.json"]),
    "validate": ("p.sg", ["validate", "{in}"]),
    "check-building": ("p.sg", ["check-building", "{in}"]),
    "stats": ("p.sg", ["stats", "{in}"]),
    "eval-scene": ("scene.json", ["eval", "--scene", "{in}", "--checklist", "{dir}/cl.json"]),
    "eval-checklist": ("cl2.json", ["eval", "--scene", "{dir}/room.sg", "--checklist", "{in}"]),
    "gen-data-template": (
        "t.json",
        ["gen-data", "--template", "{in}", "--n", "1", "--seed", "1", "--out", "{dir}/o.jsonl"],
    ),
    "gen-data-vocab": (
        "v.tsv",
        ["gen-data", "--template", "office", "--vocab", "{in}", "--n", "1", "--seed", "1",
         "--out", "{dir}/o.jsonl"],
    ),
    "validate-vocab": ("v.tsv", ["validate", "{dir}/room.sg", "--vocab", "{in}"]),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "room.sg").write_text(ROOM, encoding="utf-8")
    (d / "cl.json").write_text(json.dumps(CHECKLIST), encoding="utf-8")
    return d


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(blob=_BYTES)
def test_any_input_bytes_exit_cleanly(target, blob, workdir):
    name, argv = TARGETS[target]
    path = workdir / name
    path.write_bytes(blob)
    argv = [a.format(**{"in": str(path), "dir": str(workdir)}) for a in argv]
    out = io.TextIOWrapper(io.BytesIO())  # compile writes to sys.stdout.buffer
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_USAGE)
