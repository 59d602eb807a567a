import json
import warnings

import pytest

from tricklelab import gf
from tricklelab.cli import main
from tricklelab.core import TrickleParams
from tricklelab.simulate import LineTopology, monte_carlo


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--R", "5", "--eta", "0",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["mu_U"] == pytest.approx(3.6667, abs=1e-4)
        assert data["delay_rate"] == pytest.approx(0.064545, abs=1e-6)
        assert len(data["Z"]) == 5 and len(data["M"]) == 5

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--R", "2", "--eta", "0.5")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("R,eta,mu_U,mu_theta,hop_rate,delay_rate")
        assert row.split(",")[0] == "2"


class TestExactAndGF:
    def test_exact_pmf_rows_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--R", "2", "--n", "4",
                               "--eta", "0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,probability"
        ms = [int(l.split(",")[0]) for l in lines[1:]]
        assert ms == sorted(ms)
        probs = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert probs[2] == 0.5 and probs[3] == 0.5

    def test_gf_carries_cross_check_column(self, capsys):
        code, out, _ = run_cli(capsys, "gf", "--R", "3", "--n", "9",
                               "--eta", "0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,probability,dp_probability"
        for line in lines[1:]:
            _, p, dp = line.split(",")
            assert abs(float(p) - float(dp)) <= 1e-9

    def test_gf_json_moments_match_exact(self, capsys):
        _, gf_out, _ = run_cli(capsys, "gf", "--R", "4", "--n", "12",
                               "--eta", "0.5", "--format", "json")
        _, dp_out, _ = run_cli(capsys, "exact", "--R", "4", "--n", "12",
                               "--eta", "0.5", "--format", "json")
        a, b = json.loads(gf_out), json.loads(dp_out)
        assert a["mean"] == pytest.approx(b["mean"], rel=1e-9)
        assert a["variance"] == pytest.approx(b["variance"], rel=1e-9)
        assert list(a)[:5] == ["n", "R", "eta", "mean", "variance"]

    NEAR_ZERO_VARIANCE = [("--R", "1", "--n", "14", "--eta", "1"),
                          ("--R", "1", "--n", "4", "--eta", "0.999999")]

    @pytest.mark.parametrize("argv", NEAR_ZERO_VARIANCE)
    def test_gf_near_zero_variance_exits_0_without_warnings(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "gf", *argv)
        assert code == 0, err

    @pytest.mark.parametrize("argv", NEAR_ZERO_VARIANCE + [("--R", "3", "--n", "9", "--eta", "0.25")])
    def test_gf_second_moment_off_by_1e8_exits_3(self, capsys, monkeypatch, argv):
        exact = gf.delay_moments_gf
        monkeypatch.setattr(gf, "delay_moments_gf", lambda *a: [
            m * (1.0 + 1e-8) if r == 1 else m for r, m in enumerate(exact(*a))])
        code, _, err = run_cli(capsys, "gf", *argv)
        assert code == 3 and "variance" in err

    @pytest.mark.parametrize("target, error, expected", [
        ("pmf", 2e-9, 3), ("pmf", 5e-10, 0), ("mean", 2e-9, 3), ("mean", 5e-10, 0)])
    def test_gf_pmf_and_mean_checks_keep_their_tolerance(self, capsys, monkeypatch,
                                                          target, error, expected):
        # pmf: absolute error in one entry; mean: relative error, with the
        # second moment moved along so that the variance stays put
        exact_pmf, exact_moments = gf.hop_pmf_gf, gf.delay_moments_gf
        if target == "pmf":
            def pmf(*a):
                out = exact_pmf(*a).copy()
                out[out.argmax()] += error
                return out
            monkeypatch.setattr(gf, "hop_pmf_gf", pmf)
        else:
            def moments(*a):
                m1, m2 = exact_moments(*a)
                shifted = m1 * (1.0 + error)
                return [shifted, m2 + shifted**2 - m1**2]
            monkeypatch.setattr(gf, "delay_moments_gf", moments)
        code, _, _ = run_cli(capsys, "gf", "--R", "3", "--n", "9", "--eta", "0.25")
        assert code == expected

    def test_gf_insufficient_truncation_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "gf", "--R", "2", "--n", "10",
                               "--m-max", "3")
        assert code == 3
        assert "error" in err


class TestSimulate:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--R", "3", "--n", "20",
                               "--eta", "0", "--reps", "5", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rep,H,T"
        assert len(lines) == 6

    def test_deterministic_given_seed(self, capsys):
        args = ("simulate", "--R", "3", "--n", "20", "--eta", "0.25",
                "--reps", "4", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_protocol_engine_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--R", "2", "--n", "8",
                               "--eta", "0", "--reps", "2", "--seed", "0",
                               "--engine", "protocol")
        assert code == 0 and len(out.strip().split("\n")) == 3

    def test_env_var_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("TRICKLE_LAB_SEED", "77")
        _, from_env, _ = run_cli(capsys, "simulate", "--R", "3", "--n", "10",
                                 "--eta", "0", "--reps", "3")
        monkeypatch.delenv("TRICKLE_LAB_SEED")
        _, explicit, _ = run_cli(capsys, "simulate", "--R", "3", "--n", "10",
                                 "--eta", "0", "--reps", "3", "--seed", "77")
        assert from_env == explicit

    def test_out_file_and_byte_identity(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            code, _, _ = run_cli(capsys, "simulate", "--R", "4", "--n", "30",
                                 "--eta", "0.5", "--reps", "10", "--seed", "3",
                                 "--out", str(p))
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_samples_parse_back_bit_exactly(self, capsys):
        args = ("simulate", "--R", "4", "--n", "30", "--eta", "0.25",
                "--reps", "20", "--seed", "3")
        _, csv_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        header, *lines = csv_out.strip().split("\n")
        assert header == "rep,H,T"
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == list(range(20))
        data = json.loads(json_out)
        assert [int(r[1]) for r in rows] == data["H"]
        assert [float(r[2]) for r in rows] == data["T"]
        ss = monte_carlo(TrickleParams(eta=0.25), LineTopology(n=30, R=4),
                         reps=20, seed=3, engine="renewal")
        assert data["H"] == ss.h_samples.tolist()
        assert data["T"] == ss.t_samples.tolist()

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "analyze", "--R", "2", "--out", str(target))
        assert exc.value.code == 4


class TestCompare:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--R", "5", "--n", "100",
                               "--eta", "0", "--reps", "500", "--seed", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "metric,empirical,analytic"
        metrics = [l.split(",")[0] for l in lines[1:]]
        assert metrics == ["mean_H", "var_H", "mean_T", "var_T", "ks_T"]


class TestSweepEta:
    def test_grid_plus_argmin_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-eta", "--R", "5", "--steps", "101")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta,delay_rate,sigma_T_sq,kind"
        assert len(lines) == 103  # header + grid + argmin
        last = lines[-1].split(",")
        assert last[3] == "argmin"
        assert abs(float(last[0]) - 0.56) <= 0.03

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-eta", "--R", "10",
                               "--steps", "51", "--format", "json")
        data = json.loads(out)
        assert len(data["grid"]) == 51
        assert abs(data["argmin"]["eta"] - 0.26) <= 0.03


class TestValidation:
    @pytest.mark.parametrize("argv", [
        ("analyze", "--R", "0"),
        ("analyze", "--R", "2", "--eta", "1.5"),
        ("exact", "--R", "2", "--n", "0"),
        ("simulate", "--R", "2", "--n", "5", "--reps", "0"),
        ("simulate", "--R", "2", "--n", "5", "--k", "2"),           # renewal + k>1
        ("simulate", "--R", "2", "--n", "5", "--tau-h", "4"),       # renewal + finite
        ("compare", "--R", "5", "--n", "100", "--reps", "2", "--engine", "protocol",
         "--k", "2", "--tau-h", "4"),                               # no analytic law
        ("sweep-eta", "--R", "3", "--steps", "1"),
        ("nonsense",),
        ("simulate", "--R", "2", "--n", "5", "--engine", "protocol", "--tau-h", "0.5"),
        ("simulate", "--R", "2", "--n", "5", "--engine", "protocol", "--tau-h", "-1"),
        ("simulate", "--R", "2", "--n", "5", "--engine", "protocol", "--tau-h", "nan"),
        ("gf", "--R", "3", "--n", "5", "--m-max", "-1"),
        ("simulate", "--R", "2", "--n", "5", "--reps", "2", "--seed", "-1"),
        ("TRICKLE_LAB_SEED=abc", "simulate", "--R", "2", "--n", "5", "--reps", "2"),
        ("TRICKLE_LAB_SEED=-3", "simulate", "--R", "2", "--n", "5", "--reps", "2"),
        ("compare", "--R", "2", "--n", "5", "--reps", "1"),         # no sample variance
    ])
    def test_flag_errors_exit_2(self, capsys, monkeypatch, argv):
        # leading NAME=value items set environment variables
        argv = list(argv)
        while "=" in argv[0]:
            name, value = argv.pop(0).split("=", 1)
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_tau_h_inf_literal_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--R", "2", "--n", "5",
                             "--reps", "2", "--seed", "0", "--tau-h", "inf")
        assert code == 0
