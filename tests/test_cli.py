import math
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

    def test_integer_keys_must_be_integral(self, tmp_path):
        with pytest.raises(ConfigError, match="max_inner"):
            load_config(_write(tmp_path, "max_inner=10.5\n"))
        _, _, cfg = load_config(_write(tmp_path, "max_inner=10\n", name="ok.txt"))
        assert cfg.max_inner == 10

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

    def test_spacing_helpers(self):
        logs = sweep_bandwidths(1e5, 1e7, 3)
        assert logs == [1e5, pytest.approx(1e6, rel=1e-12), 1e7]
        lins = sweep_bandwidths(1e5, 3e5, 3, log_spacing=False)
        assert lins == [1e5, pytest.approx(2e5), 3e5]
        with pytest.raises(ValueError):
            sweep_bandwidths(0.0, 1e6, 3)
        with pytest.raises(ValueError):
            sweep_bandwidths(1e5, 1e6, 1)

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
