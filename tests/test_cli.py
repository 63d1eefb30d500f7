import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spatialgrammar.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from test_datagen import GOLDEN_SFT_SHA256
from test_errorchain import GOLDEN_DPO_SHA256

CLEAN = "llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 sofa 0\n0 0 0\n"
COLLIDING = (
    "llmsli grid=1m dims=4x4\nmain:\n"
    "0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n"
)
RING = (
    "llmslb grid=1m dims=4x4\nmain:\n"
    "w w d w\nw 0 0 w\nw 0 0 c\nw w w w\n"
)
BROKEN_RING = (
    "llmslb grid=1m dims=4x4\nmain:\n"
    "w w 0 w\nw 0 0 w\nw 0 0 w\nw w w w\n"
)


REPO = Path(__file__).resolve().parents[1]


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """Run python with the package on the path, as a user would from the shell;
    a run past 120 s fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=REPO, timeout=120
    )


def assert_usage_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def assert_main_usage_error(argv: list[str], capsys) -> str:
    """Run sgc in-process; it must exit 2 with one stderr line, which is returned."""
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    return err


HUGE = "9" * 400  # a decimal literal that float() turns into inf
BIG = "1" + "0" * 307  # finite, but 30 cells of it overflow a float
OFFICE = json.loads((REPO / "src/spatialgrammar/data/templates/office.json").read_text())


@pytest.fixture()
def room(tmp_path):
    path = tmp_path / "room.sg"
    path.write_text(CLEAN, encoding="utf-8")
    return str(path)


@pytest.fixture()
def bad_room(tmp_path):
    path = tmp_path / "bad.sg"
    path.write_text(COLLIDING, encoding="utf-8")
    return str(path)


class TestCompile:
    def test_json_to_stdout(self, room, capsysbinary):
        assert main(["compile", room]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["placements"][0]["id"] == "sofa_0"

    def test_output_file(self, room, tmp_path, capsysbinary):
        out = tmp_path / "scene.json"
        assert main(["compile", room, "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_bytes())["grid"]["rows"] == 3
        assert capsysbinary.readouterr().out == b""

    def test_obj_and_svg(self, room, capsysbinary):
        assert main(["compile", room, "--out", "obj"]) == EXIT_OK
        out = capsysbinary.readouterr().out
        assert out.startswith(b"#") or b"v " in out
        assert main(["compile", room, "--out", "svg"]) == EXIT_OK
        assert b"<svg" in capsysbinary.readouterr().out

    def test_warnings_on_stderr(self, tmp_path, capsysbinary):
        path = tmp_path / "warn.sg"
        path.write_text("llmsli grid=1m dims=1x1\nmain:\nvase\n", encoding="utf-8")
        assert main(["compile", str(path)]) == EXIT_OK
        captured = capsysbinary.readouterr()
        assert b"warning:" in captured.err
        assert json.loads(captured.out)  # artifact stays clean JSON

    def test_parse_error_exit_2(self, tmp_path, capsysbinary):
        path = tmp_path / "nope.sg"
        path.write_text("llmsli grid=1m dims=1x1\nmain:\nsofa[\n", encoding="utf-8")
        assert main(["compile", str(path)]) == EXIT_USAGE
        assert b"parse error" in capsysbinary.readouterr().err

    def test_missing_file_exit_2(self, capsysbinary):
        assert main(["compile", "/nonexistent/x.sg"]) == EXIT_USAGE
        capsysbinary.readouterr()

    def test_deterministic_bytes(self, room, capsysbinary):
        main(["compile", room])
        first = capsysbinary.readouterr().out
        main(["compile", room])
        second = capsysbinary.readouterr().out
        assert first == second

    def test_ceiling_flag(self, tmp_path, capsysbinary):
        path = tmp_path / "light.sg"
        path.write_text("llmsli grid=1m dims=1x1\nmain:\npendant_light\n", encoding="utf-8")
        assert main(["compile", str(path), "--ceiling", "3.0"]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        top = doc["placements"][0]["center"][2] + doc["placements"][0]["size"][2] / 2
        assert top == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("ceiling", ["0", "-1", "nan", "inf"])
    def test_bad_ceiling_rejected(self, ceiling, tmp_path):
        path = tmp_path / "light.sg"
        path.write_text("llmsli grid=1m dims=1x1\nmain:\npendant_light\n", encoding="utf-8")
        proc = run_python("-m", "spatialgrammar.cli", "compile", str(path), "--ceiling", ceiling)
        assert_usage_error(proc)
        assert proc.stdout == ""


    @pytest.mark.parametrize("command", ["compile", "validate"])
    @pytest.mark.parametrize(
        "source",
        [
            f"llmsli grid=1m dims=1x1\nmain:\nsofa[{HUGE}x1x1]\n",
            f"llmsli grid={HUGE}m dims=1x1\nmain:\nsofa\n",
            f"llmslb grid=1m dims=1x2 height={HUGE}m\nmain:\nw w\n",
            f"llmsli grid={BIG}m dims=1x30\nmain:\n" + "0 " * 29 + "sofa\n",
            f"llmslb grid={BIG}m dims=3x30\nmain:\n"
            + "w " * 29 + "w\nw " + "0 " * 28 + "w\n" + "w " * 29 + "w\n",
        ],
        ids=["size", "grid", "height", "room-extent", "shell-extent"],
    )
    def test_overflowing_number_exit_2(self, command, source, tmp_path, capsys):
        path = tmp_path / "huge.sg"
        path.write_text(source, encoding="utf-8")
        assert "too large" in assert_main_usage_error([command, str(path)], capsys)

    def test_ceiling_rejected_for_buildings(self, tmp_path, capsys):
        path = tmp_path / "shell.sgb"
        path.write_text(
            "llmslb grid=1m dims=1x2 ceiling=Top\nmain:\nw w\nsublayout Top dims=1x1:\n"
            "pendant_light\n",
            encoding="utf-8",
        )
        err = assert_main_usage_error(["compile", str(path), "--ceiling", "9"], capsys)
        assert "height=" in err

    def test_header_error_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "shell.sgb"
        path.write_text("llmslb grid=1m dims=1x2 height=3\nmain:\nw w\n", encoding="utf-8")
        err = assert_main_usage_error(["compile", str(path)], capsys)
        assert "wall height needs an explicit unit: '3'" in err


@pytest.mark.parametrize("command", ["compile", "validate", "check-building"])
@pytest.mark.parametrize(
    "source, message",
    [
        (
            "llmslb grid=1m dims=1x3 sill=3m\nmain:\nw c w\n",
            "window top at 4.2m is above the wall height 2.6m",
        ),
        (
            "llmslb grid=1m dims=1x3 height=1.5m\nmain:\nw d w\n",
            "door top at 2m is above the wall height 1.5m",
        ),
    ],
    ids=["window", "door"],
)
def test_opening_above_wall_exit_2(command, source, message, tmp_path, capsys):
    path = tmp_path / "shell.sgb"
    path.write_text(source, encoding="utf-8")
    assert message in assert_main_usage_error([command, str(path)], capsys)


def test_floor_length_window(tmp_path, capsysbinary):
    path = tmp_path / "shell.sgb"
    path.write_text("llmslb grid=1m dims=1x3 sill=0m\nmain:\nw c w\n", encoding="utf-8")
    assert main(["compile", str(path)]) == EXIT_OK
    assert b'"sill":0.000000' in capsysbinary.readouterr().out


@pytest.mark.parametrize("command", ["stats", "compile", "validate"])
def test_comment_before_building_header(command, tmp_path, capsysbinary):
    path = tmp_path / "shell.sgb"
    path.write_text("# shell\nllmslb grid=1m dims=1x2\nmain:\nw w\n", encoding="utf-8")
    assert main([command, str(path)]) == EXIT_OK
    assert b"Traceback" not in capsysbinary.readouterr().err


class TestValidate:
    def test_clean_exit_0(self, room, capsysbinary):
        assert main(["validate", room]) == EXIT_OK
        capsysbinary.readouterr()

    def test_collision_exit_1(self, bad_room, capsysbinary):
        assert main(["validate", bad_room]) == EXIT_INVALID
        out = capsysbinary.readouterr().out.decode()
        assert "Coffee table overlaps with sofa at position (1,1)" in out

    def test_json_report(self, bad_room, capsysbinary):
        assert main(["validate", bad_room, "--report", "json"]) == EXIT_INVALID
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["passed"] is False
        assert doc["collisions"][0]["a_id"] == "coffee_table_0"

    def test_eps_flag(self, tmp_path, capsysbinary):
        path = tmp_path / "touch.sg"
        path.write_text(
            "llmsli grid=1m dims=4x4\nmain:\n"
            "0 0 0 0\n0 sofa 0 0\n0 coffee_table 0 0\n0 0 0 0\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == EXIT_INVALID
        capsysbinary.readouterr()
        # eps above the 0.5 m lengthwise overlap forgives the pair
        assert main(["validate", str(path), "--eps", "0.55"]) == EXIT_OK
        capsysbinary.readouterr()

    @pytest.mark.parametrize(
        "flag", [["--eps", "nan"], ["--eps", "inf"], ["--eps", "-0.5"], ["--tol", "nan"],
                 ["--tol", "-0.5"]]
    )
    def test_bad_tolerance_rejected(self, flag, tmp_path):
        # two sofas three cells apart: valid, and a NaN eps once called them colliding
        path = tmp_path / "sofas.sg"
        path.write_text(
            "llmsli grid=1m dims=6x3\nmain:\n"
            "0 0 0\n0 sofa 0\n0 0 0\n0 0 0\n0 sofa 0\n0 0 0\n",
            encoding="utf-8",
        )
        assert run_python("-m", "spatialgrammar.cli", "validate", str(path)).returncode == EXIT_OK
        proc = run_python("-m", "spatialgrammar.cli", "validate", str(path), *flag)
        assert_usage_error(proc)
        assert proc.stdout == ""

    def test_directory_input(self, tmp_path):
        assert_usage_error(run_python("-m", "spatialgrammar.cli", "validate", str(tmp_path)))

    def test_non_utf8_input(self, tmp_path):
        path = tmp_path / "latin1.sg"
        path.write_bytes(CLEAN.replace("sofa", "sof\xe1").encode("latin-1"))
        assert_usage_error(run_python("-m", "spatialgrammar.cli", "validate", str(path)))


class TestCheckBuilding:
    def test_closed_ok(self, tmp_path, capsysbinary):
        path = tmp_path / "ring.sgb"
        path.write_text(RING, encoding="utf-8")
        assert main(["check-building", str(path)]) == EXIT_OK
        out = capsysbinary.readouterr().out.decode()
        assert "walls: 4" in out
        assert "openings: 2" in out

    def test_gap_reported(self, tmp_path, capsysbinary):
        path = tmp_path / "broken.sgb"
        path.write_text(BROKEN_RING, encoding="utf-8")
        assert main(["check-building", str(path)]) == EXIT_INVALID
        out = capsysbinary.readouterr().out.decode()
        assert "open ends at (0,1), (0,3)" in out
        assert "possible gap at (0,2)" in out

    def test_orphan_exit_1(self, tmp_path, capsysbinary):
        path = tmp_path / "orphan.sgb"
        path.write_text("llmslb grid=1m dims=3x3\nmain:\n0 0 0\n0 d 0\n0 0 0\n", encoding="utf-8")
        assert main(["check-building", str(path)]) == EXIT_INVALID
        assert b"finding:" in capsysbinary.readouterr().err


class TestGenData:
    def test_sft_stage(self, tmp_path, capsysbinary):
        out = tmp_path / "sft.jsonl"
        code = main(
            [
                "gen-data",
                "--template",
                "living_room",
                "--n",
                "5",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        capsysbinary.readouterr()
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert set(json.loads(lines[0])) == {"schema_version", "prompt", "code"}

    def test_pretrain_stage_triples(self, tmp_path, capsysbinary):
        out = tmp_path / "pre.jsonl"
        main(
            [
                "gen-data",
                "--template",
                "living_room",
                "--n",
                "4",
                "--seed",
                "3",
                "--stage",
                "pretrain",
                "--out",
                str(out),
            ]
        )
        capsysbinary.readouterr()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 12

    def test_dpo_stage(self, tmp_path, capsysbinary):
        out = tmp_path / "dpo.jsonl"
        code = main(
            [
                "gen-data",
                "--template",
                "living_room",
                "--n",
                "4",
                "--seed",
                "3",
                "--stage",
                "dpo",
                "--out",
                str(out),
            ]
        )
        capsysbinary.readouterr()
        assert code == EXIT_OK
        rows = [json.loads(ln) for ln in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {
                "schema_version",
                "prompt",
                "chosen",
                "rejected",
                "injected_errors",
            }

    def test_deterministic_across_runs(self, tmp_path, capsysbinary):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(
                [
                    "gen-data",
                    "--template",
                    "office",
                    "--n",
                    "6",
                    "--seed",
                    "12",
                    "--out",
                    str(out),
                ]
            )
            capsysbinary.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_workers_equal_serial(self, tmp_path, capsysbinary):
        a, b = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        for out, workers in ((a, "0"), (b, "2")):
            main(
                [
                    "gen-data",
                    "--template",
                    "bedroom",
                    "--n",
                    "6",
                    "--seed",
                    "5",
                    "--workers",
                    workers,
                    "--out",
                    str(out),
                ]
            )
            capsysbinary.readouterr()
        assert a.read_bytes() == b.read_bytes()


    def test_dpo_records_distinct(self, tmp_path, capsysbinary):
        out = tmp_path / "dpo.jsonl"
        argv = ["gen-data", "--template", "bedroom", "--stage", "dpo", "--n", "45"]
        argv += ["--base-n", "14", "--seed", "2024", "--out", str(out)]
        assert main(argv) == EXIT_OK
        capsysbinary.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 45
        assert len(set(lines)) == 45

    @pytest.mark.parametrize("template", sorted(GOLDEN_DPO_SHA256))
    def test_bytes_match_the_goldens(self, template, tmp_path, capsysbinary):
        digests = {}
        for stage, counts in (("sft", ["--n", "60"]), ("pretrain", ["--n", "60"]),
                              ("dpo", ["--n", "45", "--base-n", "14"])):
            out = tmp_path / f"{stage}.jsonl"
            argv = ["gen-data", "--template", template, "--seed", "2024", "--stage", stage,
                    "--out", str(out), *counts]
            assert main(argv) == EXIT_OK
            digests[stage] = hashlib.sha256(out.read_bytes()).hexdigest()
        capsysbinary.readouterr()
        assert (digests["sft"], digests["pretrain"]) == GOLDEN_SFT_SHA256[template]
        assert digests["dpo"] == GOLDEN_DPO_SHA256[template]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "0"],
            ["--n", "0", "--stage", "dpo"],
            ["--n", "-3", "--stage", "pretrain"],
            ["--n", "4", "--base-n", "0", "--stage", "dpo"],
            ["--n", "3", "--workers", "-4"],
        ],
    )
    def test_counts_below_one_rejected(self, extra, tmp_path):
        out = tmp_path / "never.jsonl"
        argv = ["gen-data", "--template", "living_room", "--seed", "3", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "spatialgrammar.cli", *argv, *extra],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["sft", "pretrain"])
    def test_base_n_outside_dpo_rejected(self, stage, tmp_path, capsys):
        out = tmp_path / "never.jsonl"
        argv = ["gen-data", "--template", "office", "--n", "2", "--seed", "1",
                "--stage", stage, "--base-n", "5", "--out", str(out)]
        assert "--base-n" in assert_main_usage_error(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [{}, [1], {**OFFICE, "count_range": [3, 65]}, {**OFFICE, "prompt_templates": ["{bogus}"]}],
        ids=["empty-object", "list", "count-beyond-grid", "unknown-text-field"],
    )
    def test_malformed_template(self, doc, tmp_path, capsys):
        template = tmp_path / "t.json"
        template.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["gen-data", "--template", str(template), "--n", "1", "--seed", "1",
                "--out", str(tmp_path / "out.jsonl")]
        assert_main_usage_error(argv, capsys)
        assert not (tmp_path / "out.jsonl").exists()

    def test_template_grid_beyond_64_rejected(self, tmp_path, capsys):
        doc = {**OFFICE, "grid": {**OFFICE["grid"], "rows": 1000, "cols": 1000}}
        template = tmp_path / "big.json"
        template.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["gen-data", "--template", str(template), "--n", "1", "--seed", "1",
                "--out", str(tmp_path / "out.jsonl")]
        assert "1000x1000 exceeds the 64x64 limit" in assert_main_usage_error(argv, capsys)
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "line", ["1 crate", "1 crate floor_furniture nan 1 1", "x crate floor_furniture 1 1 1"]
    )
    def test_malformed_vocab(self, line, tmp_path, capsys):
        vocab = tmp_path / "v.tsv"
        vocab.write_text(line + "\n", encoding="utf-8")
        argv = ["gen-data", "--template", "office", "--n", "1", "--seed", "1",
                "--vocab", str(vocab), "--out", str(tmp_path / "out.jsonl")]
        assert f"{vocab}:1: " in assert_main_usage_error(argv, capsys)


class TestGenerateCorpusScript:
    @pytest.mark.parametrize(
        "extra", [["--sft-n", "0"], ["--dpo-n", "0"], ["--sft-n", "-2"]]
    )
    def test_bad_counts_rejected(self, extra, tmp_path):
        out = tmp_path / "corpus"
        proc = run_python("scripts/generate_corpus.py", "--out", str(out), *extra)
        assert_usage_error(proc)
        assert not out.exists()

    def test_writes_the_gen_data_bytes(self, tmp_path, capsysbinary):
        out = tmp_path / "corpus"
        proc = run_python(
            "scripts/generate_corpus.py", "--out", str(out), "--template", "bedroom",
            "--sft-n", "12", "--dpo-n", "20", "--seed", "7",
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        for name, extra in (
            ("sft.jsonl", ["--stage", "sft", "--n", "12"]),
            ("pretrain.jsonl", ["--stage", "pretrain", "--n", "12"]),
            ("dpo.jsonl", ["--stage", "dpo", "--n", "20", "--base-n", "12"]),
        ):
            ref = tmp_path / name
            argv = ["gen-data", "--template", "bedroom", "--seed", "7", "--out", str(ref)]
            assert main(argv + extra) == EXIT_OK
            capsysbinary.readouterr()
            assert (out / name).read_bytes() == ref.read_bytes(), name
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["files"]) == ["dpo.jsonl", "pretrain.jsonl", "sft.jsonl"]
        for name, entry in manifest["files"].items():
            blob = (out / name).read_bytes()
            assert entry["records"] == blob.count(b"\n")
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()

    def test_malformed_template_rejected(self, tmp_path):
        template = tmp_path / "t.json"
        template.write_text("[1]", encoding="utf-8")
        out = tmp_path / "corpus"
        proc = run_python(
            "scripts/generate_corpus.py", "--out", str(out), "--template", str(template)
        )
        assert_usage_error(proc)
        assert not out.exists()


class TestStudyScripts:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--cells", "0"],
            ["--floor", "0x0"],
            ["--cells", "2", "--floor", "0.5x0.5"],
            ["--floor", "nanxnan"],
            ["--samples", "0"],
            ["--floor", "1x1", "--cells", "1"],
            ["--floor", "1e9x1e9", "--cells", "1", "--samples", "1"],
        ],
    )
    def test_grid_size_study_bad_input(self, extra):
        assert_usage_error(run_python("scripts/grid_size_study.py", *extra))

    def test_render_examples_out_is_a_file(self, tmp_path):
        out = tmp_path / "renders"
        out.write_text("", encoding="utf-8")
        assert_usage_error(run_python("scripts/render_examples.py", "--out", str(out)))


# a desk carrying a desk_lamp: placements desk_0, then desk_lamp_0 with parent desk_0
DESK = (
    "llmsli grid=1m dims=3x3\nmain:\n0 0 0\n0 desk(T_on_top) 0\n0 0 0\n"
    "sublayout T:\ndesk_lamp\n"
)
LAMP_ON_DESK = {"checks": [
    {"kind": "hierarchy_support", "subject": "desk_lamp_0", "object": "desk_0"},
    {"kind": "spatial_relation", "relation": "on_top", "subject": "desk_lamp_0",
     "object": "desk_0"},
]}


def edit_lamp(**fields):
    """An edit of the compiled DESK scene JSON that sets fields of the lamp row."""
    return lambda doc: doc["placements"][1].update(fields)


def edit_grid(**fields):
    """An edit of the compiled DESK scene JSON that sets fields of its grid."""
    return lambda doc: doc["grid"].update(fields)


def edit_door(**fields):
    """An edit of the compiled RING shell's scene JSON that sets fields of its door row."""
    def edit(doc):
        assert doc["openings"][0]["kind"] == "door"
        doc["openings"][0].update(fields)
    edit.source = RING
    return edit


def size_check(min_size: str) -> str:
    """Checklist JSON text with a min_size written verbatim."""
    return ('{"checks": [{"kind": "attribute_size", "subject": "sofa", '
            '"params": {"min_size": %s}}]}' % min_size)


class TestEval:
    def test_single_turn(self, room, tmp_path, capsysbinary):
        checklist = tmp_path / "cl.json"
        checklist.write_text(
            json.dumps(
                {
                    "checks": [
                        {"kind": "exist", "subject": "sofa"},
                        {"kind": "exist", "subject": "piano"},
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert main(["eval", "--scene", room, "--checklist", str(checklist)]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["final_ratio"] == 0.5

    def test_scene_json_input(self, room, tmp_path, capsysbinary):
        scene_json = tmp_path / "scene.json"
        main(["compile", room, "-o", str(scene_json)])
        capsysbinary.readouterr()
        checklist = tmp_path / "cl.json"
        checklist.write_text(
            json.dumps({"checks": [{"kind": "exist", "subject": "sofa"}]}),
            encoding="utf-8",
        )
        assert (
            main(["eval", "--scene", str(scene_json), "--checklist", str(checklist)])
            == EXIT_OK
        )
        assert json.loads(capsysbinary.readouterr().out)["final_ratio"] == 1.0

    def test_multi_turn_cumulative(self, tmp_path, capsysbinary):
        t1 = tmp_path / "t1.sg"
        t1.write_text(CLEAN, encoding="utf-8")
        t2 = tmp_path / "t2.sg"
        t2.write_text(
            "llmsli grid=1m dims=3x3\nmain:\nbed 0 0\n0 0 0\n0 0 0\n", encoding="utf-8"
        )
        checklist = tmp_path / "turns.json"
        checklist.write_text(
            json.dumps(
                {
                    "turns": [
                        {
                            "turn_id": 1,
                            "checks": [
                                {"kind": "exist", "subject": "sofa", "label": "sofa"}
                            ],
                        },
                        {
                            "turn_id": 2,
                            "checks": [
                                {"kind": "exist", "subject": "bed", "label": "bed"}
                            ],
                        },
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "eval",
                    "--scene",
                    str(t1),
                    "--scene",
                    str(t2),
                    "--checklist",
                    str(checklist),
                ]
            )
            == EXIT_OK
        )
        doc = json.loads(capsysbinary.readouterr().out)
        assert [t["ratio"] for t in doc["turns"]] == [1.0, 0.5]

    def test_bad_checklist_json(self, room, tmp_path, capsysbinary):
        checklist = tmp_path / "broken.json"
        checklist.write_text("{not json", encoding="utf-8")
        assert (
            main(["eval", "--scene", room, "--checklist", str(checklist)]) == EXIT_USAGE
        )
        capsysbinary.readouterr()


    EXIST_SOFA = {"checks": [{"kind": "exist", "subject": "sofa"}]}

    @pytest.mark.parametrize(
        "scene_doc, checklist_doc",
        [
            ({"grid": {"cell_size": 1.0}}, EXIST_SOFA),
            (None, {"checks": [{"kind": "exists", "subject": "sofa"}]}),
            (None, {"checks": [{"kind": "exist"}]}),
            (None, "scene"),
            (None, [1, 2]),
            (None, {"checks": [{"kind": "attribute_size", "subject": "sofa",
                                "params": {"min_size": 3}}]}),
            (edit_lamp(identifier=5), LAMP_ON_DESK),
            (edit_lamp(id=7), LAMP_ON_DESK),
            (edit_lamp(id="desk_0", parent=None), LAMP_ON_DESK),
            (lambda doc: doc["structural"].append(dict(doc["placements"][0])), LAMP_ON_DESK),
            (edit_lamp(parent="ghost_0"), LAMP_ON_DESK),
            (edit_lamp(parent="desk_lamp_0"), LAMP_ON_DESK),
            (edit_lamp(parent=0), LAMP_ON_DESK),
            (edit_lamp(depth=-1), LAMP_ON_DESK),
            (edit_lamp(depth=True), LAMP_ON_DESK),
            (edit_lamp(depth=1.0), LAMP_ON_DESK),
            (lambda doc: doc.update(placements={}), LAMP_ON_DESK),
            (lambda doc: doc.update(structural={}), LAMP_ON_DESK),
            (lambda doc: doc.update(openings={}), LAMP_ON_DESK),
            (lambda doc: doc["placements"][0].update(parent="desk_lamp_0"), LAMP_ON_DESK),
            (edit_lamp(depth=5), LAMP_ON_DESK),
            (edit_door(id=5), EXIST_SOFA),
            (edit_door(kind="portal"), EXIST_SOFA),
            (edit_door(wall="nowhere"), EXIST_SOFA),
            (edit_door(width=-1), EXIST_SOFA),
            (edit_door(height=float("inf")), EXIST_SOFA),
            (edit_door(sill=-0.5), EXIST_SOFA),
            (edit_lamp(yaw_rad="nan"), LAMP_ON_DESK),
            (edit_lamp(yaw_rad=float("nan")), LAMP_ON_DESK),
            (edit_grid(rows="3"), LAMP_ON_DESK),
            (edit_grid(rows=2.7), LAMP_ON_DESK),
            (edit_grid(cols=True), LAMP_ON_DESK),
            (edit_grid(cell_size="1.0"), LAMP_ON_DESK),
            (edit_lamp(size=[True, 0.9, 0.8]), LAMP_ON_DESK),
            (edit_lamp(center=[1.0, 1.0, 10**400]), LAMP_ON_DESK),
            (edit_lamp(cell=[True, 2.7]), LAMP_ON_DESK),
            (edit_door(width=True), EXIST_SOFA),
            (edit_door(cell=[0, "2"]), EXIST_SOFA),
            (None, {"turns": [{"turn_id": 1, "checks": [], "removes": ["x"]}]}),
            (None, size_check("[1e400, 1, 1]")),
            (None, size_check("[1, 2, true]")),
            (None, size_check("[1, 2, NaN]")),
            (None, size_check("[1, 2, " + "9" * 400 + "]")),
        ],
        ids=["scene-missing-key", "unknown-kind", "no-subject", "scene-as-checklist", "list",
             "size-not-a-list", "identifier-not-a-string", "id-not-a-string", "duplicate-id",
             "duplicate-id-in-structural", "parent-names-no-entry", "parent-is-itself",
             "parent-not-a-string", "negative-depth", "bool-depth", "float-depth",
             "placements-object", "structural-object", "openings-object", "parent-cycle",
             "depth-disagrees", "opening-id-not-a-string", "opening-kind-unknown",
             "opening-wall-unknown", "opening-width-negative", "opening-height-infinite",
             "opening-sill-negative", "yaw-string", "yaw-nan", "rows-string", "rows-fractional",
             "cols-bool", "cell-size-string", "size-entry-bool", "center-int-beyond-float",
             "cell-bool-and-fractional", "opening-width-bool", "opening-cell-string",
             "turn-with-nothing-to-score", "size-overflows-to-inf", "size-bool", "size-nan",
             "size-int-beyond-float"],
    )
    def test_bad_input_shape(self, room, tmp_path, scene_doc, checklist_doc):
        scene = room
        if callable(scene_doc):
            desk = tmp_path / "desk.sg"
            desk.write_text(getattr(scene_doc, "source", DESK), encoding="utf-8")
            assert main(["compile", str(desk), "-o", str(tmp_path / "desk.json")]) == EXIT_OK
            doc = json.loads((tmp_path / "desk.json").read_text(encoding="utf-8"))
            scene_doc(doc)
            scene_doc = doc
        if scene_doc is not None:
            scene = str(tmp_path / "scene.json")
            Path(scene).write_text(json.dumps(scene_doc), encoding="utf-8")
        checklist = tmp_path / "cl.json"
        if checklist_doc == "scene":
            assert main(["compile", room, "-o", str(checklist)]) == EXIT_OK
        elif isinstance(checklist_doc, str):  # JSON text that json.dumps cannot write
            checklist.write_text(checklist_doc, encoding="utf-8")
        else:
            checklist.write_text(json.dumps(checklist_doc), encoding="utf-8")
        proc = run_python(
            "-m", "spatialgrammar.cli", "eval", "--scene", scene, "--checklist", str(checklist)
        )
        assert_usage_error(proc)
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_non_utf8_checklist(self, room, tmp_path):
        checklist = tmp_path / "cl.json"
        checklist.write_bytes('{"checks": [{"id": "c1", "subject": "sofá"}]}'.encode("latin-1"))
        proc = run_python(
            "-m", "spatialgrammar.cli", "eval", "--scene", room, "--checklist", str(checklist)
        )
        assert_usage_error(proc)


class TestStats:
    def test_indoor(self, room, capsysbinary):
        assert main(["stats", room]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["occupied_cells"] == 1
        assert doc["cells"] == 9

    def test_building(self, tmp_path, capsysbinary):
        path = tmp_path / "ring.sgb"
        path.write_text(RING, encoding="utf-8")
        assert main(["stats", str(path)]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["occupied_cells"] == 12


class TestVocabOverride:
    def test_vocab_flag(self, tmp_path, capsysbinary):
        vocab_file = tmp_path / "tiny.tsv"
        vocab_file.write_text(
            "# code identifier category L W H\n"
            "1 crate floor_furniture 0.5 0.5 0.5\n",
            encoding="utf-8",
        )
        room = tmp_path / "crate.sg"
        room.write_text("llmsli grid=1m dims=1x1\nmain:\ncrate\n", encoding="utf-8")
        assert main(["compile", str(room), "--vocab", str(vocab_file)]) == EXIT_OK
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["placements"][0]["identifier"] == "crate"

    def test_unknown_identifier_without_vocab(self, tmp_path, capsysbinary):
        room = tmp_path / "crate.sg"
        room.write_text("llmsli grid=1m dims=1x1\nmain:\ncrate\n", encoding="utf-8")
        assert main(["compile", str(room)]) == EXIT_USAGE
        capsysbinary.readouterr()


class TestEntryPoint:
    def test_console_script_version(self):
        out = subprocess.run(
            [sys.executable, "-m", "spatialgrammar.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.startswith("sgc ")
