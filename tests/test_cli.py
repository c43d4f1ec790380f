import json
import os
import subprocess
import sys

import pytest

from layertree import cli
from layertree.cli import BENCH_HEADER, main
from structure_dump import SplitMix64


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_deterministic_bytes(self, capsys):
        c1, out1, _ = run(capsys, ["gen", "--n", "3", "--dims", "2", "--seed", "7"])
        c2, out2, _ = run(capsys, ["gen", "--n", "3", "--dims", "2", "--seed", "7"])
        assert c1 == c2 == 0
        assert out1 == out2
        assert len([l for l in out1.splitlines() if not l.startswith("#")]) == 3

    def test_grid_one_all_zero(self, capsys):
        code, out, _ = run(capsys, ["gen", "--n", "4", "--dims", "3", "--seed", "1",
                                    "--dist", "grid:1"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert all(l == "0.0,0.0,0.0" for l in data)

    def test_grid_side_beyond_uint64(self, capsys):
        # a side of 2^64 leaves every draw as it is, as the scalar next_below does
        code, out, err = run(capsys, ["gen", "--n", "3", "--dims", "2", "--seed", "1",
                                      "--dist", "grid:18446744073709551616"])
        assert code == 0 and err == ""
        rng = SplitMix64(1)
        want = [f"{float(rng.next_u64())!r},{float(rng.next_u64())!r}" for _ in range(3)]
        assert [l for l in out.splitlines() if not l.startswith("#")] == want

    def test_n_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--n", "0", "--dims", "2", "--seed", "1"])
        assert code == 1
        assert "--n" in err

    def test_dims_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--n", "3", "--dims", "0", "--seed", "1"])
        assert code == 1
        assert "--dims must be >= 1" in err

    @pytest.mark.parametrize("dist", ["grid:", "grid:0", "gaussian"])
    def test_bad_dist_is_usage_error(self, capsys, dist):
        code, _, _ = run(capsys, ["gen", "--n", "1", "--dims", "1", "--seed", "1",
                                  "--dist", dist])
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "pts.txt"
        code, out, _ = run(capsys, ["gen", "--n", "2", "--dims", "1", "--seed", "3",
                                    "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().count("\n") == 3

    def test_unwritable_out_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["gen", "--n", "1", "--dims", "1", "--seed", "1",
                                    "--out", str(tmp_path / "no" / "dir" / "f.txt")])
        assert code == 2
        assert "cannot write" in err


@pytest.fixture
def workload(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    qrs = tmp_path / "q.txt"
    code, _, _ = run(capsys, ["gen", "--n", "50", "--dims", "2", "--seed", "11",
                              "--out", str(pts)])
    assert code == 0
    qrs.write_text("0,0,1,1\n0.25,0.25,0.75,0.75\n0.9,0.9,0.1,0.1\n")
    return pts, qrs


class TestQuery:
    def test_full_range_reports_all(self, capsys, tmp_path):
        pts = tmp_path / "p.txt"
        pts.write_text("0,0\n0.5,0.5\n1,0\n0,1\n")
        qrs = tmp_path / "q.txt"
        qrs.write_text("0,0,1,1\n")
        code, out, _ = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                    "--queries", str(qrs)])
        assert code == 0
        assert out.splitlines()[0] == "q=0 k=4"
        assert len(out.splitlines()) == 5

    def test_check_passes_on_generated_workload(self, capsys, workload):
        pts, qrs = workload
        code, out, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                      "--queries", str(qrs), "--check"])
        assert code == 0 and err == ""
        assert out.startswith("q=0 k=50")

    def test_count_only(self, capsys, workload):
        pts, qrs = workload
        code, out, _ = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                    "--queries", str(qrs), "--count-only"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "q=0 k=50" and lines[2] == "q=2 k=0"

    def test_malformed_points_is_exit_2_with_line(self, capsys, tmp_path):
        pts = tmp_path / "p.txt"
        pts.write_text("1,2\n1,2,3\n")
        qrs = tmp_path / "q.txt"
        qrs.write_text("0,0,1,1\n")
        code, _, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                    "--queries", str(qrs)])
        assert code == 2
        assert "line 2" in err

    def test_empty_field_is_exit_2_with_line(self, capsys, tmp_path):
        # '1,,2' must not be read as the point (1, 2)
        pts = tmp_path / "p.txt"
        pts.write_text("0,0\n1,,2\n")
        qrs = tmp_path / "q.txt"
        qrs.write_text("0,0,1,1\n")
        code, out, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                      "--queries", str(qrs)])
        assert code == 2 and out == ""
        assert "line 2: empty field" in err

    def test_dims_zero_is_usage_error(self, capsys, workload):
        pts, qrs = workload
        code, _, err = run(capsys, ["query", "--points", str(pts), "--dims", "0",
                                    "--queries", str(qrs)])
        assert code == 1
        assert "--dims must be >= 1" in err

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["query", "--points", str(tmp_path / "nope"),
                                    "--dims", "2", "--queries", str(tmp_path / "nope")])
        assert code == 2
        assert err == f"layertree: {tmp_path / 'nope'}: No such file or directory\n"

    @pytest.mark.parametrize("bad", ["points", "queries"])
    def test_non_utf8_file_is_exit_2(self, capsys, workload, bad):
        pts, qrs = workload
        (pts if bad == "points" else qrs).write_bytes(b"\xff\n")
        code, out, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                      "--queries", str(qrs)])
        assert code == 2 and out == ""
        assert "can't decode byte 0xff" in err

    def test_byte_order_marks_are_dropped(self, capsys, workload):
        # a file saved with a UTF-8 byte-order mark reports as the same file without one
        pts, qrs = workload
        argv = ["query", "--points", str(pts), "--dims", "2", "--queries", str(qrs)]
        code, want, err = run(capsys, argv)
        assert code == 0 and err == "" and want.count("\n") > 3
        for path in (pts, qrs):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, argv) == (0, want, "")

    @pytest.mark.parametrize("bad", ["points", "queries"])
    def test_errors_name_the_file(self, capsys, workload, bad):
        pts, qrs = workload
        path = pts if bad == "points" else qrs
        first = b"0.5,0.5\n" if bad == "points" else b"0,0,1,1\n"
        for content, detail in ((first + b"1,2,3\n", "line 2: "),
                                (b"\xff\n", "'utf-8' codec can't decode byte 0xff")):
            path.write_bytes(content)
            code, out, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                          "--queries", str(qrs)])
            assert code == 2 and out == ""
            assert err.startswith(f"layertree: {path}: {detail}")

    def test_mismatch_reporting_is_exit_3(self, capsys, workload, monkeypatch):
        # force a wrong oracle to exercise the mismatch path
        pts, qrs = workload
        monkeypatch.setattr(cli, "brute_force_query", lambda ps, box: [])
        code, _, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                    "--queries", str(qrs), "--check"])
        assert code == 3
        assert "mismatch at query 0" in err
        assert "extra ids" in err

    def test_count_only_mismatch_reports_counts(self, capsys, workload, monkeypatch):
        pts, qrs = workload
        monkeypatch.setattr(cli, "brute_force_query", lambda ps, box: [])
        code, _, err = run(capsys, ["query", "--points", str(pts), "--dims", "2",
                                    "--queries", str(qrs), "--count-only", "--check"])
        assert code == 3
        assert "mismatch at query 0: expected count 0, got 50" in err

    def test_determinism(self, capsys, workload):
        pts, qrs = workload
        args = ["query", "--points", str(pts), "--dims", "2", "--queries", str(qrs)]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2

    @pytest.mark.parametrize("count_only", [False, True])
    def test_stats_line(self, capsys, workload, count_only):
        # --stats adds the run's QueryStats totals as one JSON line on
        # stderr; stdout and the exit code are those of the same run without it
        pts, qrs = workload
        args = ["query", "--points", str(pts), "--dims", "2", "--queries", str(qrs)]
        args += ["--count-only"] * count_only
        _, plain, _ = run(capsys, args)
        code, out, err = run(capsys, args + ["--stats"])
        assert code == 0 and out == plain
        [line] = err.splitlines()
        stats = json.loads(line)
        assert list(stats) == ["nodes_visited", "binary_searches", "bridge_follows", "reported"]
        hits = [int(l.split("k=")[1]) for l in out.splitlines() if l.startswith("q=")]
        assert hits[0] == 50 and stats["reported"] == sum(hits)
        assert stats["binary_searches"] == len(hits) * (2 if count_only else 1)
        if not count_only:
            assert stats["reported"] == len(out.splitlines()) - len(hits)


class TestBench:
    def test_header_and_one_search_law(self, capsys):
        code, out, _ = run(capsys, ["bench", "--dims", "2", "--sizes", "64,256",
                                    "--queries", "20", "--seed", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 3
        for row in lines[1:]:
            cols = row.split(",")
            assert len(cols) == len(BENCH_HEADER.split(","))
            assert float(cols[6]) == 1.0  # avg_binary_searches, d=2

    def test_non_timing_columns_deterministic(self, capsys):
        args = ["bench", "--dims", "3", "--sizes", "128", "--queries", "10",
                "--seed", "9", "--selectivity", "0.01"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        stable = lambda text: [
            [c for i, c in enumerate(r.split(",")) if i not in (2, 4)]
            for r in text.splitlines()
        ]
        assert stable(out1) == stable(out2)

    def test_non_timing_columns_pinned(self, capsys):
        # each size draws one gen_points matrix of n + queries rows: the
        # points, then the boxes' lo corners; these rows were written by
        # drawing every coordinate with the scalar next_float, points first
        # and then each box's lo corner (seed 2**64 - 59 wraps the state)
        args = ["bench", "--dims", "3", "--sizes", "1,100,129", "--queries", "40",
                "--seed", str(2**64 - 59), "--selectivity", "0.05"]
        _, out, _ = run(capsys, args)
        rows = [[c for i, c in enumerate(r.split(",")) if i not in (2, 4)]
                for r in out.splitlines()[1:]]
        assert rows == [["1", "3", "40", "1.0", "0.0", "0.0", "0"],
                        ["100", "3", "40", "41.9", "4.225", "16.7", "186"],
                        ["129", "3", "40", "49.45", "5.125", "21.125", "241"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--dims", "2", "--sizes", "256,64", "--queries", "5", "--seed", "1"],
            ["bench", "--dims", "2", "--sizes", "0", "--queries", "5", "--seed", "1"],
            ["bench", "--dims", "2", "--sizes", "64", "--queries", "0", "--seed", "1"],
            ["bench", "--dims", "2", "--sizes", "64", "--queries", "5", "--seed", "1",
             "--selectivity", "1.5"],
            ["bench", "--dims", "0", "--sizes", "64", "--queries", "5", "--seed", "1"],
            ["bench", "--dims", "2", "--sizes", "64,x", "--queries", "5", "--seed", "1"],
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 1
        if "64,x" in argv:  # a size that is not an integer is named
            assert "bad --sizes '64,x'" in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestStdoutWriteError:
    # a full stdout is a write error: exit 2 and one stderr line, with no
    # traceback and no "Exception ignored" from the flush at interpreter exit
    @pytest.mark.parametrize("command", ["gen", "query", "bench"])
    def test_full_stdout_is_exit_2(self, tmp_path, command):
        pts, qrs = tmp_path / "p.txt", tmp_path / "q.txt"
        pts.write_text("0,0\n0.5,0.5\n1,1\n")
        qrs.write_text("0,0,1,1\n")
        argv = {
            "gen": ["gen", "--n", "3", "--dims", "2", "--seed", "7"],
            "query": ["query", "--points", str(pts), "--dims", "2", "--queries", str(qrs)],
            "bench": ["bench", "--dims", "2", "--sizes", "16", "--queries", "2", "--seed", "1"],
        }[command]
        env = dict(os.environ, PYTHONPATH=SRC)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "layertree"] + argv, stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("layertree: cannot write to stdout: ")
        assert proc.stderr.count("\n") == 1  # no traceback, nothing ignored at exit
