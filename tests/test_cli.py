import re
from pathlib import Path

import numpy as np
import pytest

from viscotv import SolverConfig, cli, netpbm, solver
from viscotv.cli import run


def write_pgm(path, samples, maxval=255, magic="P5"):
    netpbm.write(path, netpbm.NetpbmImage(magic, maxval, samples.astype(np.uint16)))


@pytest.fixture
def board(tmp_path):
    yy, xx = np.indices((16, 16))
    samples = (((yy + xx) % 2) * 255)[:, :, None]
    path = tmp_path / "board.pgm"
    write_pgm(path, samples)
    mask = np.zeros((16, 16), dtype=int)
    mask[6:10, 6:10] = 255
    mask_path = tmp_path / "mask.pgm"
    write_pgm(mask_path, mask[:, :, None])
    return path, mask_path


# (flag, value, the flag the error names): one row or more per settings flag.
_INVALID = [
    ("--mu", "nan", "--mu"),
    ("--zeta", "1.0", "--zeta"),
    ("--lambda", "inf", "--lambda"),
    ("--lambda", "0", "--lambda"),
    ("--inner-max-iters", "0", "--inner-max-iters"),
    ("--tol", "nan", "--tol"),
    ("--delta0", "inf", "--delta0"),
    ("--delta-factor", "1.5", "--delta-factor"),
    ("--delta-min", "0", "--delta-min"),
    ("--delta-min", "1", "--delta0"),  # the default delta0 = 0.1 is then below the floor
    ("--tol", "0", "--tol"),
]


class TestValidation:
    @pytest.mark.parametrize(
        "flag, value, named", _INVALID, ids=[f"{flag}-{value}" for flag, value, _ in _INVALID]
    )
    def test_invalid_number_rejected(self, tmp_path, board, capsys, flag, value, named):
        code = run(
            ["--input", str(board[0]), "--output", str(tmp_path / "o.pgm"), flag, value]
        )
        assert code == 1
        assert f"error: {named} " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mu", "--zeta", "--lambda"])
    def test_infinite_model_flag_named(self, tmp_path, board, capsys, flag):
        code = run(
            ["--input", str(board[0]), "--output", str(tmp_path / "o.pgm"), flag, "inf"]
        )
        assert code == 1
        assert flag in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            ["--input", str(tmp_path / "nope.pgm"), "--output", str(tmp_path / "o.pgm")]
        )
        assert code == 1

    def test_unknown_flag(self, tmp_path, board):
        assert run(["--input", str(board[0]), "--frobnicate"]) == 1

    def test_malformed_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        assert run(["--input", str(bad), "--output", str(tmp_path / "o.pgm")]) == 1

    def test_mask_dimension_mismatch(self, tmp_path, board):
        small = tmp_path / "small.pgm"
        write_pgm(small, np.zeros((4, 4, 1)))
        code = run(
            [
                "--input", str(board[0]),
                "--mask", str(small),
                "--output", str(tmp_path / "o.pgm"),
            ]
        )
        assert code == 1

    def test_all_damaged_mask(self, tmp_path, board, capsys):
        white = tmp_path / "white.pgm"
        write_pgm(white, np.full((16, 16, 1), 255))
        code = run(
            [
                "--input", str(board[0]),
                "--mask", str(white),
                "--output", str(tmp_path / "o.pgm"),
            ]
        )
        assert code == 1
        assert "damages the entire domain" in capsys.readouterr().err


class TestRuns:
    def test_constant_input_is_identity(self, tmp_path):
        src = tmp_path / "const.pgm"
        write_pgm(src, np.full((8, 8, 1), 77))
        out = tmp_path / "out.pgm"
        report = tmp_path / "rep.txt"
        code = run(
            ["--input", str(src), "--output", str(out), "--report", str(report)]
        )
        assert code == 0
        assert src.read_bytes() == out.read_bytes()
        text = report.read_text()
        assert "relative_gap=0.0" in text
        assert "max_principle_pass=true" in text

    def test_schedule_defaults_are_solver_config_defaults(self, tmp_path):
        src = tmp_path / "const.pgm"
        write_pgm(src, np.full((4, 4, 1), 77))
        report = tmp_path / "rep.txt"
        out = tmp_path / "o.pgm"
        code = run(["--input", str(src), "--output", str(out), "--report", str(report)])
        assert code == 0
        keys = dict(line.split("=", 1) for line in report.read_text().splitlines())
        defaults = SolverConfig()
        for field in (
            "delta0", "delta_min", "delta_factor", "inner_tol", "inner_max_iters", "gap_tol"
        ):
            assert keys[field] == repr(getattr(defaults, field)), field

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        src = tmp_path / "const.pgm"
        write_pgm(src, np.full((4, 4, 1), 77))
        out = tmp_path / "missing" / "o.pgm"
        assert run(["--input", str(src), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err

    def test_inpainting_run_certifies(self, tmp_path, board):
        src, mask = board
        out = tmp_path / "out.pgm"
        report = tmp_path / "rep.txt"
        csv = tmp_path / "log.csv"
        code = run(
            [
                "--input", str(src),
                "--mask", str(mask),
                "--output", str(out),
                "--report", str(report),
                "--log-csv", str(csv),
            ]
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == (
            "outer_iter,delta,inner_iters,I_delta,I,R_hat,gap_rel,"
            "grad_inf_norm,max_abs_u,stop_reason,evaluations,extrapolated_gap,seconds"
        )
        report_text = dict(
            line.split("=", 1) for line in report.read_text().splitlines()
        )
        assert float(report_text["relative_gap"]) <= 1e-4
        assert int(report_text["outer_steps"]) == len(lines) - 1
        assert report_text["max_principle_pass"] == "true"
        # output preserves format and maxval
        restored = netpbm.read(out)
        assert restored.magic == "P5" and restored.maxval == 255

    def test_nonconvergence_exits_two_with_report(self, tmp_path, board):
        src, mask = board
        report = tmp_path / "rep.txt"
        code = run(
            [
                "--input", str(src),
                "--mask", str(mask),
                "--output", str(tmp_path / "o.pgm"),
                "--report", str(report),
                "--tol", "1e-30",
                "--delta0", "0.1",
                "--delta-min", "0.1",
            ]
        )
        assert code == 2
        assert report.exists()
        assert "relative_gap=" in report.read_text()

    @pytest.mark.parametrize(
        "lam, zeta, expected", [("1e-4", "1.01", 0), ("1e-20", "1.05", 2)]
    )
    def test_extreme_fidelity_writes_report(self, tmp_path, board, lam, zeta, expected):
        # lam**(-1/(zeta-1)) is beyond the float range here; the first pair
        # still certifies, the second reports its infinite gap.
        src, mask = board
        report = tmp_path / "rep.txt"
        code = run(
            [
                "--input", str(src),
                "--mask", str(mask),
                "--output", str(tmp_path / "o.pgm"),
                "--report", str(report),
                "--lambda", lam,
                "--zeta", zeta,
            ]
        )
        assert code == expected
        keys = dict(line.split("=", 1) for line in report.read_text().splitlines())
        gap = float(keys["relative_gap"])
        assert gap <= 1e-4 if expected == 0 else gap > 1e-4

    def test_failed_line_search_exits_two_with_report(self, tmp_path, board, monkeypatch):
        # No trial step ever descends: every level stagnates at its start,
        # which is still certified and reported.
        monkeypatch.setattr(solver, "_fidelity_prox", lambda w, *args, **kwargs: w + 1.0)
        src, mask = board
        report = tmp_path / "rep.txt"
        code = run(
            [
                "--input", str(src),
                "--mask", str(mask),
                "--output", str(tmp_path / "o.pgm"),
                "--report", str(report),
            ]
        )
        assert code == 2
        keys = dict(line.split("=", 1) for line in report.read_text().splitlines())
        assert float(keys["relative_gap"]) > 1e-4
        assert (tmp_path / "o.pgm").exists()

    def test_solver_exception_exits_two(self, tmp_path, board, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("no certificate")

        monkeypatch.setattr(cli, "continuation", broken)
        src, mask = board
        out = tmp_path / "o.pgm"
        code = run(["--input", str(src), "--mask", str(mask), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "solver error: no certificate\n"
        assert not out.exists()

    def test_inner_cap_hits_reported(self, tmp_path, board):
        src, mask = board
        report = tmp_path / "rep.txt"
        code = run(
            [
                "--input", str(src),
                "--mask", str(mask),
                "--output", str(tmp_path / "o.pgm"),
                "--report", str(report),
                "--inner-max-iters", "3",
                "--delta-min", "0.01",  # the delta = 0.01 level cannot certify 1e-4
            ]
        )
        assert code == 2
        keys = dict(line.split("=", 1) for line in report.read_text().splitlines())
        assert int(keys["inner_cap_hits"]) >= 1

    def test_denoise_without_mask(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "noisy.pgm"
        write_pgm(src, rng.integers(0, 256, size=(8, 8, 1)))
        code = run(
            ["--input", str(src), "--output", str(tmp_path / "o.pgm"), "--lambda", "5"]
        )
        assert code == 0


    @pytest.mark.parametrize("delta_min, point", [("1e-8", "extrapolated"), ("0.1", "iterate")])
    def test_report_and_csv_name_the_returned_point(self, tmp_path, board, delta_min, point):
        # The board's second level certifies its Richardson point; a one-level
        # schedule has none and returns its iterate, without certifying.
        src, mask = board
        report, csv = tmp_path / "rep.txt", tmp_path / "log.csv"
        args = [
            "--input", str(src), "--mask", str(mask), "--output", str(tmp_path / "o.pgm"),
            "--report", str(report), "--log-csv", str(csv), "--delta-min", delta_min,
        ]
        assert run(args) == (0 if point == "extrapolated" else 2)
        keys = dict(line.split("=", 1) for line in report.read_text().splitlines())
        assert keys["returned_point"] == point
        header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
        first, last = dict(zip(header, rows[0])), dict(zip(header, rows[-1]))
        assert first["extrapolated_gap"] == ""
        if point == "extrapolated":
            assert len(rows) == 2
            assert float(keys["relative_gap"]) == float(last["extrapolated_gap"])
            assert float(last["extrapolated_gap"]) < float(last["gap_rel"])
        else:
            assert len(rows) == 1
            assert float(keys["relative_gap"]) == float(last["gap_rel"])


class TestReadme:
    def test_flag_table_matches_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `(--[a-z0-9-]+)[^`]*` \| ([^|]*?) \|", readme, re.M))
        parser = cli._build_parser()
        defaults = {a.option_strings[-1]: a.default for a in parser._actions if a.dest != "help"}
        assert sorted(rows) == sorted(defaults)
        for flag, text in rows.items():
            try:
                documented = float(text)
            except ValueError:  # a path flag, or one without a default
                continue
            assert documented == float(defaults[flag]), flag

    def test_csv_header_matches_columns(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (header,) = re.findall(r"^`(outer_iter,[A-Za-z_,]*)`\.$", readme, re.M)
        assert header.split(",") == [name for name, _ in cli._CSV_COLUMNS]


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, board):
        src, mask = board
        args = lambda: [
            "--input", str(src),
            "--mask", str(mask),
            "--output", str(tmp_path / "out.pgm"),
            "--report", str(tmp_path / "rep.txt"),
            "--log-csv", str(tmp_path / "log.csv"),
            "--seed", "11",
        ]
        assert run(args()) == 0
        first_report = (tmp_path / "rep.txt").read_bytes()
        assert b"\nreturned_point=extrapolated\n" in first_report
        first_csv = (tmp_path / "log.csv").read_text().splitlines()
        first_out = (tmp_path / "out.pgm").read_bytes()
        assert run(args()) == 0
        assert (tmp_path / "rep.txt").read_bytes() == first_report
        assert (tmp_path / "out.pgm").read_bytes() == first_out
        second_csv = (tmp_path / "log.csv").read_text().splitlines()
        # the trailing wall-clock column is the only volatile field
        strip = lambda rows: [r.rsplit(",", 1)[0] for r in rows]
        assert strip(second_csv) == strip(first_csv)
        assert len(second_csv) == len(first_csv)
