import math
import re
from pathlib import Path

import numpy as np
import pytest

from semrelay.cli import (
    EXIT_INFEASIBLE,
    EXIT_ITERATION_CAP,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    SweepRow,
    build_config,
    compute_sweep,
    dump_config,
    format_compare,
    load_config,
    main,
    read_sweep_csv,
    sweep_bandwidths,
    write_sweep_csv,
)
from semrelay.model import SigmoidFit, SystemParams, min_snr_threshold_db
from semrelay.penalty import PenaltyConfig
from oracles import random_fit, random_params

# A penalty schedule that converges in well under a second; used where the
# test exercises plumbing rather than solution quality.
FAST_CFG_TEXT = "lambda0=1e-6\nc=0.5\n"


def _write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        params, fit, cfg = load_config(_write(tmp_path, "# only a comment\n\n"))
        assert params == SystemParams()
        assert fit == SigmoidFit()
        assert cfg == PenaltyConfig()

    def test_known_keys_applied(self, tmp_path):
        path = _write(tmp_path, "W=2e6\nbeta=3.5\nlambda0=10 # inline comment\n")
        params, fit, cfg = load_config(path)
        assert params.W == 2e6 and params.beta == 3.5 and cfg.lambda0 == 10.0
        assert fit == SigmoidFit()

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = _write(tmp_path, "W=1e6\nbogus=3\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
            load_config(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = _write(tmp_path, "W=fast\n")
        with pytest.raises(ConfigError, match=r":1: invalid number"):
            load_config(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = _write(tmp_path, "W 1e6\n")
        with pytest.raises(ConfigError, match=r":1: expected key=value"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, "W=1e6\nW=2e6\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_invariant_violation_names_key(self, tmp_path):
        path = _write(tmp_path, "beta=1.5\n")
        with pytest.raises(ConfigError, match="beta"):
            load_config(path)

    def test_eps_bar_above_sigmoid_range_rejected(self, tmp_path):
        # a1 + a2 = 0.9365 with the default fit, so 0.95 is unreachable
        path = _write(tmp_path, "eps_bar=0.95\n")
        with pytest.raises(ConfigError, match="eps_bar"):
            load_config(path)

    def test_raised_eps_bar_moves_threshold_up(self, tmp_path):
        _, fit_default, _ = load_config(_write(tmp_path, "", name="a.txt"))
        _, fit_tight, _ = load_config(_write(tmp_path, "eps_bar=0.92\n", name="b.txt"))
        base = min_snr_threshold_db(fit_default)
        moved = min_snr_threshold_db(fit_tight)
        want = (math.log((0.92 - fit_tight.a1) / (fit_tight.a1 + fit_tight.a2 - 0.92))
                - fit_tight.c2) / fit_tight.c1
        assert moved > base
        assert moved == pytest.approx(want, rel=1e-12)

    def test_negative_inner_tol_rejected(self, tmp_path):
        # A negative stall tolerance would make every phase run all
        # max_inner cycles; 0 stops a phase only on an exact repeat.
        with pytest.raises(ConfigError, match="inner_tol"):
            build_config({"inner_tol": -1.0})
        with pytest.raises(ConfigError, match="inner_tol"):
            load_config(_write(tmp_path, "inner_tol=-1e-6\n"))
        _, _, cfg = load_config(_write(tmp_path, "inner_tol=0\n", name="ok.txt"))
        assert cfg.inner_tol == 0.0

    def test_integer_keys_must_be_integral(self, tmp_path):
        with pytest.raises(ConfigError, match="max_inner"):
            load_config(_write(tmp_path, "max_inner=10.5\n"))
        _, _, cfg = load_config(_write(tmp_path, "max_inner=10\n", name="ok.txt"))
        assert cfg.max_inner == 10

    @pytest.mark.parametrize("line", [
        "max_inner=nan", "max_inner=inf", "max_outer=1e400",  # int() raised
        "W=inf", "beta=inf", "lambda0=inf", "inner_tol=nan",  # passed the range checks
        "rho0_db=nan", "N0_dbm_hz=-inf", "c2=inf",  # not checked at all
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, line):
        key = line.partition("=")[0]
        path = _write(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["solve", "--config", path]) == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("data, line", [
        (b"\xff\xfe", 1), (b"W=1e6\r\n# caf\xe9\nbeta=3\n", 2),
    ], ids=["bom-utf16", "latin1-comment"])
    def test_non_utf8_file_ends_in_one_error_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "cfg.txt"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{line}: not UTF-8 text"):
            load_config(str(path))
        assert main(["solve", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: not UTF-8 text") and err.count("\n") == 1

    def test_round_trip(self, tmp_path):
        src = _write(tmp_path, "W=3.25e6\nbeta=2.75\neps_bar=0.91\nlambda0=7.5\nmax_outer=123\n")
        loaded = load_config(src)
        dumped = _write(tmp_path, dump_config(*loaded), name="dumped.txt")
        assert load_config(dumped) == loaded


class TestSweepCsv:
    def _rows(self):
        return [
            SweepRow(1e5, 1234.5, 2345.25, None, 7.5e-3, 9e9, 0.25, 33.125, 1e-9,
                     "converged", "ok", "infeasible", "ok", "ok"),
            SweepRow(1e6, None, None, None, None, 1.0, None, None, None,
                     "infeasible", "infeasible", "infeasible", "infeasible", "ok"),
        ]

    def test_round_trip_exact(self, tmp_path):
        rows = self._rows()
        path = str(tmp_path / "out.csv")
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows

    def test_header_fixed(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_sweep_csv([], path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header.split(",")[:6] == [
            "W", "eta_penalty", "eta_oracle", "eta_equal_bw", "eta_fixed_place", "eta_df"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_sweep_csv(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda fields: fields[:-1], "expected 14 fields, got 13"),
        (lambda fields: fields + ["1.0"], "expected 14 fields, got 15"),
        (lambda fields: ["1e5", "fast", *fields[2:]], "invalid number 'fast' for 'eta_penalty'"),
        (lambda fields: ["", *fields[1:]], "invalid number '' for 'W'"),
        (lambda fields: ["nan", *fields[1:]], "invalid number 'nan' for 'W'"),
        (lambda fields: [fields[0], "inf", *fields[2:]], "invalid number 'inf' for 'eta_penalty'"),
        (lambda fields: [*fields[:8], "-inf", *fields[9:]], "invalid number '-inf' for 'zeta'"),
    ], ids=["short", "long", "not-a-number", "no-bandwidth", "nan-bandwidth", "inf-rate",
            "negative-inf-zeta"])
    def test_malformed_row_names_its_line(self, tmp_path, edit, message):
        # The second data row, line 3 of the file, is malformed; the first
        # is as written.
        path = str(tmp_path / "out.csv")
        write_sweep_csv(self._rows(), path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{path}:3: {message}$"):
            read_sweep_csv(path)

    def test_non_utf8_row_names_its_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_sweep_csv(self._rows(), str(path))
        with open(path, "ab") as fh:
            fh.write(b"1e7,\xff\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: not UTF-8 text"):
            read_sweep_csv(str(path))

    def test_quoted_line_breaks_read_back(self, tmp_path):
        # A cell keeps its line breaks untranslated, as csv needs.
        rows = [*self._rows(), SweepRow(2e6, *[None] * 8, "a\r\nb\rc\n", *["ok"] * 4)]
        path = str(tmp_path / "out.csv")
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="unexpected CSV header"):
            read_sweep_csv(str(path))

    def test_spacing_helpers(self):
        logs = sweep_bandwidths(1e5, 1e7, 3)
        assert logs == [1e5, pytest.approx(1e6, rel=1e-12), 1e7]
        lins = sweep_bandwidths(1e5, 3e5, 3, log_spacing=False)
        assert lins == [1e5, pytest.approx(2e5), 3e5]
        with pytest.raises(ValueError):
            sweep_bandwidths(0.0, 1e6, 3)
        with pytest.raises(ValueError):
            sweep_bandwidths(1e5, 1e6, 1)

    def test_points_must_be_an_integer(self):
        # numpy's logspace would take 2.5 only to fail in int() with a
        # TypeError; an integral numpy scalar is an integer.
        with pytest.raises(ValueError, match="points must be an integer"):
            sweep_bandwidths(1e5, 1e7, 2.5)
        with pytest.raises(ValueError, match="points must be an integer"):
            sweep_bandwidths(1e5, 1e7, 3.0)
        assert sweep_bandwidths(1e5, 1e7, np.int64(3)) == sweep_bandwidths(1e5, 1e7, 3)

    def test_compute_sweep_statuses_and_dominance(self, tmp_path):
        params, fit, cfg = build_config({"lambda0": 1e-6, "c": 0.5})
        rows = compute_sweep(params, fit, cfg, [5e5, 1e6])
        for row in rows:
            assert row.status_df == "ok"
            assert row.eta_oracle is not None
            assert row.eta_equal_bw <= row.eta_oracle
            assert row.eta_fixed_place <= row.eta_oracle


class TestMain:
    def test_solve_exit_codes(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_CFG_TEXT)
        assert main(["solve", "--config", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: converged" in out and "eta_bps:" in out
        assert "\nmax_iter_blocks: 0\n" in out

        infeasible = _write(tmp_path, "P_b=1e-9\nW=1e8\n", name="inf.txt")
        assert main(["solve", "--config", infeasible]) == EXIT_INFEASIBLE
        assert "no placement and split meets the similarity floor" in capsys.readouterr().out

        capped = _write(tmp_path, "max_outer=1\n", name="cap.txt")
        assert main(["solve", "--config", capped]) == EXIT_ITERATION_CAP

    def test_solve_infeasible_start_does_not_claim_infeasible_system(self, tmp_path, capsys):
        # System 9 of the seeded draw: a feasible point exists, but both
        # blocks are infeasible at the default start.
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, f = random_params(rng), random_fit(rng)
        cfg_path = _write(tmp_path, dump_config(p, f, PenaltyConfig()))
        assert main(["solve", "--config", cfg_path]) == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert "both blocks are infeasible at the start point" in out
        assert "no placement and split meets the similarity floor" not in out

    def test_solve_bandwidth_override(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_CFG_TEXT)
        assert main(["solve", "--config", cfg_path, "--W", "2e6"]) == EXIT_OK
        base = capsys.readouterr().out
        assert main(["solve", "--config", cfg_path]) == EXIT_OK
        assert capsys.readouterr().out != base

    def test_config_error_exit(self, tmp_path, capsys):
        bad = _write(tmp_path, "bogus=1\n")
        assert main(["solve", "--config", bad]) == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_invalid_bandwidth_override_exit(self, capsys, value):
        assert main(["solve", "--W", value]) == EXIT_USAGE
        assert "--W: W must be" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [
        ("1e5", "inf"), ("1e5", "nan"), ("1e5", "0"), ("inf", "1e6"), ("1e6", "1e5"),
    ], ids=["w_max-inf", "w_max-nan", "w_max-0", "w_min-inf", "descending"])
    def test_bad_sweep_bounds_exit_before_any_solve(self, tmp_path, capsys, monkeypatch, bounds):
        def no_solve(*args):
            raise AssertionError("a row was solved")

        monkeypatch.setattr("semrelay.cli.run", no_solve)
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--w-min", bounds[0], "--w-max", bounds[1], "--points", "3",
                "--out", str(out)]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    _SWEEP = ["sweep", "--w-min", "1e5", "--w-max", "1e7", "--points", "3", "--out"]

    @pytest.mark.parametrize("argv", [
        ["oracle", "--grid", "1"],
        ["oracle", "--grid", "0"],
        ["oracle", "--grid", "-5"],
        [*_SWEEP, "{tmp}/missing/x.csv"],
        [*_SWEEP, "{tmp}"],
    ], ids=["grid-1", "grid-0", "grid-negative", "sweep-out-missing-dir", "sweep-out-is-dir"])
    def test_usage_errors_exit_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("a solve or a search ran")

        monkeypatch.setattr("semrelay.cli.run", no_work)
        monkeypatch.setattr("semrelay.cli.oracle_search", no_work)
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--W", "abc"], "semrelay solve: error: argument --W: invalid float value"),
        (["sweep"], "semrelay sweep: error: the following arguments are required: "),
        (["bogus"], "semrelay: error: argument command: invalid choice"),
    ], ids=["bad-float", "missing-required", "unknown-command"])
    def test_argparse_errors_exit_usage(self, capsys, argv, message):
        # EXIT_INFEASIBLE is 2, argparse's own exit code for usage errors.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and message in err, err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_ok(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: ")

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--grid", "201"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eta_bps:" in out

    def test_sweep_deterministic_bytes(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_CFG_TEXT)
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        args = ["sweep", "--config", cfg_path, "--w-min", "5e5", "--w-max", "2e6",
                "--points", "3", "--out"]
        assert main(args + [out1]) == EXIT_OK
        assert main(args + [out2]) == EXIT_OK
        capsys.readouterr()
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_compare_snapshot_stable(self, tmp_path, capsys):
        params, fit, cfg = build_config({"lambda0": 1e-6, "c": 0.5})
        one = format_compare(params, fit, cfg)
        two = format_compare(params, fit, cfg)
        assert one == two
        lines = one.splitlines()
        assert lines[1].split()[0] == "scheme"
        # oracle row maximal among all schemes, up to one grid cell: the
        # continuum penalty solution may top the gridded oracle slightly
        vals = {}
        for line in lines[2:]:
            name, eta = line.split()[0], line.split()[1]
            if eta != "infeasible":
                vals[name] = float(eta)
        assert vals["oracle"] >= max(vals.values()) * (1.0 - 0.005)
        # conventional relay splits the band evenly under symmetric powers
        df_alpha = float([l for l in lines if l.startswith("df")][0].split()[3])
        assert df_alpha == pytest.approx(0.5, abs=1e-3)

    def test_compare_command_runs(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_CFG_TEXT)
        assert main(["compare", "--config", cfg_path, "--W", "5e5"]) == EXIT_OK
        assert "oracle" in capsys.readouterr().out
