import json
import subprocess
import sys

import pytest

from spatialgrammar.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, main

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

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "0"],
            ["--n", "0", "--stage", "dpo"],
            ["--n", "-3", "--stage", "pretrain"],
            ["--n", "4", "--base-n", "0", "--stage", "dpo"],
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
