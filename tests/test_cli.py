import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tricklelab import analytics, cli, gf
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

    @pytest.mark.parametrize("R, n", [(1, 1), (3, 3), (5, 20), (2, 13), (5, 3000), (2, 3250)])
    def test_gf_and_exact_pmfs_end_at_the_largest_hop_count(self, capsys, R, n):
        argv = ("--R", str(R), "--n", str(n), "--format", "json")
        _, dp_out, _ = run_cli(capsys, "exact", *argv)
        dp_pmf = json.loads(dp_out)["pmf"]
        assert len(dp_pmf) == gf.max_hops(R, n) + 1
        if n >= 3000:  # the DP's tail underflows to 0.0, and gf refuses the size
            assert dp_pmf[-1] == 0.0
            return
        _, gf_out, _ = run_cli(capsys, "gf", *argv)
        pmf = json.loads(gf_out)["pmf"]
        assert len(pmf) == len(dp_pmf)
        assert pmf[-1] > 0.0
        assert [p == 0.0 for p in pmf] == [p == 0.0 for p in dp_pmf]

    def test_gf_pmf_length_mismatch_exits_3(self, capsys, monkeypatch):
        exact_pmf = gf.hop_pmf_gf
        monkeypatch.setattr(gf, "hop_pmf_gf", lambda *a: np.append(exact_pmf(*a), 0.0))
        code, _, err = run_cli(capsys, "gf", "--R", "3", "--n", "9")
        assert code == 3 and "entries" in err

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

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_gf_range_past_n_gives_the_law_of_range_n(self, capsys, n):
        # states above min(R, n) never reach size n: any R >= n, also past
        # the int64 range, answers with the bytes of R = n but for "R"
        args = ("--n", str(n), "--eta", "0.3")
        csv = run_cli(capsys, "gf", "--R", str(n), *args)[1]
        payload = json.loads(run_cli(capsys, "gf", "--R", str(n), *args, "--format", "json")[1])
        for R in (n + 1, 250000, 2**63):
            code, out, err = run_cli(capsys, "gf", "--R", str(R), *args)
            assert code == 0, err
            assert out == csv
            code, out, err = run_cli(capsys, "gf", "--R", str(R), *args, "--format", "json")
            assert code == 0, err
            assert json.loads(out) == {**payload, "R": R}

    def test_gf_insufficient_truncation_exits_3(self, capsys, monkeypatch):
        max_hops = gf.max_hops
        monkeypatch.setattr(gf, "max_hops", lambda R, n: max_hops(R, n) - 1)
        code, _, err = run_cli(capsys, "gf", "--R", "2", "--n", "10")
        assert code == 3
        assert "tail mass" in err


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

    @pytest.mark.parametrize("reps", [20, cli.CSV_BLOCK + 3])  # within and across blocks
    def test_csv_samples_parse_back_bit_exactly(self, capsys, reps):
        args = ("simulate", "--R", "4", "--n", "30", "--eta", "0.25",
                "--reps", str(reps), "--seed", "3")
        _, csv_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        header, *lines = csv_out.strip().split("\n")
        assert header == "rep,H,T"
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == list(range(reps))
        data = json.loads(json_out)
        assert [int(r[1]) for r in rows] == data["H"]
        assert [float(r[2]) for r in rows] == data["T"]
        ss = monte_carlo(TrickleParams(eta=0.25), LineTopology(n=30, R=4),
                         reps=reps, seed=3, engine="renewal")
        assert data["H"] == ss.h_samples.tolist()
        assert data["T"] == ss.t_samples.tolist()

    @pytest.mark.parametrize("R", [str(2**63), str(10**30)])
    def test_range_past_int64_gives_the_samples_of_range_n(self, capsys, R):
        # any R >= n covers n in the first hop: the same samples as R = n
        args = ("--n", "5", "--eta", "0.5", "--reps", "40", "--seed", "4")
        code, out, err = run_cli(capsys, "simulate", "--R", R, *args)
        assert code == 0, err
        assert out == run_cli(capsys, "simulate", "--R", "5", *args)[1]
        code, out, _ = run_cli(capsys, "simulate", "--R", R, *args, "--format", "json")
        assert code == 0 and json.loads(out)["R"] == int(R)

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

    @pytest.mark.parametrize("engine", ["renewal", "protocol"])
    def test_zero_spread_ks_is_null_in_strict_json(self, capsys, engine):
        # R = 1, eta = 1: every hop takes exactly one time unit, so the analytic
        # delay spread is 0 and there is no KS distance to report
        argv = ("compare", "--R", "1", "--n", "5", "--reps", "10", "--eta", "1",
                "--engine", engine)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        table = {row["metric"]: row for row in json.loads(out, parse_constant=reject)["table"]}
        assert table["ks_T"]["empirical"] is None
        assert table["var_T"]["analytic"] == 0.0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip().split("\n")[-1] == "ks_T,nan,0.0"


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

    def test_grid_limit_is_charged_by_output_format(self, capsys):
        # CSV columns and JSON records alike take tens of bytes a point, so
        # both formats are charged 72 B a point and share the first refused size
        code, out, _ = run_cli(capsys, "sweep-eta", "--R", "5", "--steps", "100000")
        assert code == 0
        assert out.count("\n") == 1 + 100_001  # header, grid points, argmin
        code, out, _ = run_cli(capsys, "sweep-eta", "--R", "5", "--steps", "100000",
                               "--format", "json")
        assert code == 0
        assert len(json.loads(out)["grid"]) == 100_000
        parser = cli.build_parser()
        for output_format in ("csv", "json"):
            argv = ["sweep-eta", "--R", "5", "--format", output_format, "--steps"]
            cli._validate(parser.parse_args([*argv, "1111069"]), parser)  # admitted
            with pytest.raises(SystemExit) as exc:
                main([*argv, "1111070"])
            assert exc.value.code == 2
            assert "over the limit" in capsys.readouterr().err


def cell(value) -> str:
    """The CSV text of a JSON value: null stands for nan."""
    return "nan" if value is None else str(value)


@pytest.mark.parametrize("argv, json_rows", [
    (("analyze", "--R", "5", "--eta", "0.3"),
     lambda d: [[cell(v) for k, v in d.items() if k not in ("Z", "M")]]),
    (("exact", "--R", "4", "--n", "20", "--eta", "0.7"),
     lambda d: [[str(m), cell(p)] for m, p in enumerate(d["pmf"])]),
    (("gf", "--R", "3", "--n", "9", "--eta", "0.25"),   # the JSON has no dp_probability
     lambda d: [[str(m), cell(p)] for m, p in enumerate(d["pmf"])]),
    (("compare", "--R", "5", "--n", "100", "--reps", "500", "--seed", "2"),
     lambda d: [[r["metric"], cell(r["empirical"]), cell(r["analytic"])] for r in d["table"]]),
    (("compare", "--R", "1", "--n", "5", "--reps", "10", "--eta", "1"),  # ks_T: nan, null
     lambda d: [[r["metric"], cell(r["empirical"]), cell(r["analytic"])] for r in d["table"]]),
    (("sweep-eta", "--R", "5", "--steps", str(cli.CSV_BLOCK + 5)),      # across blocks
     lambda d: [[cell(p["eta"]), cell(p["delay_rate"]), cell(p["sigma_T_sq"]), kind]
                for p, kind in [(p, "grid") for p in d["grid"]] + [(d["argmin"], "argmin")]]),
], ids=["analyze", "exact", "gf", "compare", "compare-zero-spread", "sweep-eta"])
def test_csv_and_json_carry_bit_identical_values(capsys, argv, json_rows):
    _, csv_out, _ = run_cli(capsys, *argv)
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    header, *rows = [line.split(",") for line in csv_out.strip().split("\n")]
    expected = json_rows(json.loads(json_out))
    assert [row[:len(expected[0])] for row in rows] == expected
    if argv[0] == "analyze":
        assert header == [k for k in json.loads(json_out) if k not in ("Z", "M")]


@pytest.mark.parametrize("argv, digest", [
    # crosses a CSV block and a renewal block
    (("simulate", "--R", "5", "--n", "40", "--eta", "0.5",
      "--reps", str(2 * cli.CSV_BLOCK + 5), "--seed", "3"),
     "a42e70197445ae307f81bdd84ca1599fe051650d3990f8b60794b3d22ce4b26a"),
    # its ks_T cell is nan
    (("compare", "--R", "1", "--n", "5", "--eta", "1", "--reps", "10", "--seed", "2"),
     "e0d032056022793301b9b11151ec82c66fad6e6a56e8065f548bfb7e1b941f71"),
    (("sweep-eta", "--R", "5", "--steps", str(cli.CSV_BLOCK + 5)),
     "72a632e191cea1bb1aa6793d83f14f5070031abe04a39764e797b81de30ce07d"),
], ids=["simulate", "compare", "sweep-eta"])
def test_csv_bytes_match_golden_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("analyze", "--R", "30"),
     "1afaa24cb907121b1d0e327ff1800d5d74f221ed1579b57e13fd5ab0a93f4e75"),
    (("exact", "--R", "2", "--n", "1500"),
     "1a24904da3ceabad96117fcada458859fbae989dc83b4f59d30a9613ec4d1c8b"),
    (("sweep-eta", "--R", "5", "--steps", str(cli.CSV_BLOCK + 5)),
     "d5daec9932a5342d8769c2d88bd562ec76923748040a598cdc3831a8fc35f4f8"),
    # two blocks of H and of T
    (("simulate", "--R", "5", "--n", "40", "--eta", "0.5",
      "--reps", str(cli.CSV_BLOCK + 5), "--seed", "3"),
     "3e86f24ea4c6d5fd6661e1a414bd47cbd2cdfb8cbc17b5ee934c49ab4ea25eae"),
    # its ks_T is null
    (("compare", "--R", "1", "--n", "5", "--eta", "1", "--reps", "10", "--seed", "2"),
     "470a130cee1fc5f81fb0dd1757a3350d7e075703f009f13e3e02777cdb22ce53"),
], ids=["analyze", "exact", "sweep-eta", "simulate", "compare"])
def test_json_bytes_match_golden_digest(capsys, argv, digest):
    # digests of json.dumps(indent=2) of the payloads as Python lists
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def as_lists(value):
    """A payload with each numpy array as its .tolist(), a structured array
    as a list of dicts keyed by its field names."""
    if isinstance(value, np.ndarray):
        if value.dtype.names:
            return [dict(zip(value.dtype.names, row)) for row in value.tolist()]
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


# 1e308 twice in a block sums past the float range
SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 5e-324,
                                  1e308])
JSON_FLOATS = SPECIAL_FLOATS | st.floats(allow_nan=True, allow_infinity=True)
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | JSON_FLOATS
                | st.text(max_size=8) | st.sampled_from(["é", "日本", "a\"b\\", "%s", "\n"])
                | JSON_FLOATS.map(np.float64))
ELEMENTS = {"float64": JSON_FLOATS, "float32": st.floats(width=32),
            "int64": st.integers(-2**63, 2**63 - 1), "uint8": st.integers(0, 255),
            "bool": st.booleans()}
LENGTHS = st.integers(0, 9)


@st.composite
def json_arrays(draw):
    dtype = draw(st.sampled_from(sorted(ELEMENTS)))
    kind = draw(st.sampled_from(["1-D", "2-D", "records"]))
    if kind == "records":
        names = draw(st.lists(st.text(min_size=1, max_size=4) | st.sampled_from(["%", "é"]),
                              min_size=1, max_size=3, unique=True))
        dtypes = draw(st.lists(st.sampled_from(sorted(ELEMENTS)), min_size=len(names),
                               max_size=len(names)))
        array = np.empty(draw(LENGTHS), dtype=list(zip(names, dtypes)))
        for name, field_dtype in zip(names, dtypes):
            array[name] = draw(hnp.arrays(field_dtype, len(array),
                                          elements=ELEMENTS[field_dtype]))
        return array
    shape = draw(LENGTHS) if kind == "1-D" else (draw(LENGTHS), draw(st.integers(0, 3)))
    return draw(hnp.arrays(dtype, shape, elements=ELEMENTS[dtype]))


JSON_PAYLOADS = st.recursive(
    JSON_SCALARS | json_arrays(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.text(max_size=5), JSON_PAYLOADS, max_size=5),
       st.sampled_from([1, 2, 3, cli.CSV_BLOCK]))
def test_json_writer_matches_json_dumps(payload, block):
    # small blocks put the arrays across block boundaries
    out = io.StringIO()
    with mock.patch.object(cli, "CSV_BLOCK", block), contextlib.redirect_stdout(out):
        cli.emit(payload, None)
    assert out.getvalue() == json.dumps(as_lists(payload), indent=2) + "\n"


def test_cached_parser_carries_nothing_between_queries(capsys, monkeypatch):
    # a refused query that sets every flag the valid one leaves at its default
    monkeypatch.delenv("TRICKLE_LAB_SEED", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--R", "3", "--n", "10", "--reps", "0", "--eta", "0.9",
              "--seed", "4", "--engine", "protocol", "--k", "2", "--tau-h", "8",
              "--format", "json", "--out", os.devnull])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["simulate", "--R", "3", "--n", "10", "--reps", "5"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "TRICKLE_LAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "tricklelab.cli", *argv], env=env,
                           capture_output=True, text=True, check=True)
    assert out == fresh.stdout


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
        ("gf", "--R", "3", "--n", "0"),
        ("simulate", "--R", "2", "--n", "5", "--reps", "2", "--seed", "-1"),
        ("TRICKLE_LAB_SEED=abc", "simulate", "--R", "2", "--n", "5", "--reps", "2"),
        ("TRICKLE_LAB_SEED=-3", "simulate", "--R", "2", "--n", "5", "--reps", "2"),
        ("compare", "--R", "2", "--n", "5", "--reps", "1"),         # no sample variance
        ("gf", "--R", "5", "--n", "1000"),                         # over gf.TRANSFORM_MAX_N
        ("exact", "--R", "30", "--n", "100000"),
        ("gf", "--R", "1", "--n", "520"),                          # the first n refused
        ("gf", "--R", "250000", "--n", "520"),                     # any R is refused over n = 519
        ("exact", "--R", "10000", "--n", "20000"),
        ("analyze", "--R", "794"),                                 # 2 R^3 over gf.MAX_WORK
        ("sweep-eta", "--R", "794"),
        ("compare", "--R", "794", "--n", "5", "--reps", "2"),
        ("analyze", "--R", "30000"),
        ("sweep-eta", "--R", "3", "--steps", "10000000000000"),    # grid over gf.MAX_CELLS
        ("sweep-eta", "--R", "5", "--steps", "1111070", "--format", "json"),  # cells
        ("compare", "--R", "3", "--n", "10", "--reps", "10000000000000"),
        ("simulate", "--R", "5", "--n", "250", "--reps", "2500000"),           # over gf.MAX_WORK
        ("simulate", "--R", "5", "--n", "250", "--reps", "2296839", "--format", "json"),  # work
        ("simulate", "--R", "5", "--n", "2000000", "--reps", "1"),             # lockstep steps
        ("simulate", "--R", "3", "--n", "10", "--reps", "10000000000000", "--engine", "protocol"),
        ("simulate", "--R", "5", "--n", "1000000000", "--reps", "1", "--engine", "protocol"),
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

    def test_oversized_exact_work_is_refused_before_it_starts(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an oversized query reached the solver")
        for name in ("exact_law_dp", "hop_pmf_gf", "delay_moments_gf"):
            monkeypatch.setattr(gf, name, unreachable)
        for argv, limit in ((["exact", "--R", "30", "--n", "100000"], "over the limits"),
                            (["gf", "--R", "5", "--n", "1000"], "over the accuracy limit"),
                            (["exact", "--R", "250000", "--n", "40000"], "over the limits")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert limit in capsys.readouterr().err

    def test_oversized_chain_solve_is_refused_before_it_starts(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an oversized query reached the solver")
        for name in ("solve_chain", "asymptotic_stats", "sigma_T_sq", "normal_approx",
                     "minimize_delay_variance", "transition_matrix"):
            monkeypatch.setattr(analytics, name, unreachable)
        monkeypatch.setattr(cli, "monte_carlo", unreachable)
        for argv in (["analyze", "--R", "794"], ["sweep-eta", "--R", "794"],
                     ["compare", "--R", "794", "--n", "5", "--reps", "2"],
                     ["sweep-eta", "--R", "3", "--steps", "10000000000000"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "over the limit" in capsys.readouterr().err

    def test_oversized_sampling_is_refused_before_it_starts(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversized query reached the sampler")
        monkeypatch.setattr(cli, "monte_carlo", unreachable)
        for argv in (["simulate", "--R", "3", "--n", "10", "--reps", "10000000000000"],
                     ["compare", "--R", "5", "--n", "250", "--reps", "1000000"],
                     ["simulate", "--R", "5", "--n", "250", "--reps", "2296839",
                      "--format", "json"],
                     ["simulate", "--R", "5", "--n", "1000000000", "--reps", "1",
                      "--engine", "protocol"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "over the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--R", "5", "--n", "250", "--reps", "1000000"),  # flat CSV memory
        ("simulate", "--R", "5", "--n", "250", "--reps", "100000"),   # the README's
        ("compare", "--R", "30", "--n", "250", "--reps", "10000"),    # the benchmark's
        ("simulate", "--R", "30", "--n", "250", "--reps", "10000", "--format", "json"),
        ("simulate", "--R", "5", "--n", "100", "--reps", "400", "--engine", "protocol"),
        ("simulate", "--R", "1", "--n", "200000", "--reps", "1"),
        ("simulate", "--R", "5", "--n", "250", "--reps", "2296838", "--format", "json"),
    ])
    def test_sampling_limits_admit_the_queries_in_use(self, argv):
        parser = cli.build_parser()
        cli._validate(parser.parse_args(argv), parser)  # raises SystemExit if refused

    @pytest.mark.parametrize("argv, sizes", [
        (("simulate", "--R", "5", "--n", "250", "--seed", "1", "--reps"), (20_000, 60_000)),
        (("compare", "--R", "5", "--n", "250", "--seed", "1", "--reps"), (20_000, 60_000)),
        (("sweep-eta", "--R", "5", "--steps"), (20_000, 60_000)),
        (("analyze", "--R"), (100, 300)),
        (("exact", "--R", "5", "--n"), (500, 1500)),
        (("exact", "--n", "2000", "--R"), (40, 160)),  # S = min(R, n) sizes
        (("gf", "--R", "5", "--n"), (100, 400)),
    ], ids=["simulate", "compare", "sweep-eta", "analyze", "exact", "exact-sizes", "gf"])
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_charged_floats_cover_the_growth_of_the_traced_peak(self, argv, sizes,
                                                                output_format):
        # the floats charged bound how the peak grows with a query's size;
        # one block of output, a few MB at most, is not charged, and 64 KiB
        # cover allocations that differ between sizes but do not grow with them
        parser = cli.build_parser()
        peaks, charged = [], []
        for size in sizes:
            argv_at = [*argv, str(size), "--format", output_format, "--out", os.devnull]
            charged.append(8 * cli._charges(parser.parse_args(argv_at))[1])
            tracemalloc.start()
            try:
                assert main(argv_at) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= charged[1] - charged[0] + (64 << 10), (peaks, charged)

    @pytest.mark.parametrize("argv", [
        ("analyze", "--R", "793"),                  # the largest R admitted
        ("sweep-eta", "--R", "30", "--steps", "101"),  # the benchmark's sweeps
        ("sweep-eta", "--R", "5", "--steps", "10000"),
        ("sweep-eta", "--R", "793"),
        ("compare", "--R", "793", "--n", "5", "--reps", "2"),
    ])
    def test_chain_limits_admit_the_analytic_queries_in_use(self, argv):
        assert main([*argv, "--out", os.devnull]) == 0

    @pytest.mark.parametrize("R, n", [(2, 1500), (10, 1000), (30, 1500), (30, 20000)])
    def test_work_limits_admit_the_exact_queries_in_use(self, R, n):
        # the exact sizes of the benchmark workload, the CI smoke runs and
        # the README; the gf sizes are far smaller
        work, cells = gf.dp_cost(R, n)
        assert work <= gf.MAX_WORK and cells <= gf.MAX_CELLS

    @pytest.mark.parametrize("R, n", [(5, 500), (30, 300), (1, 519), (2674, 519), (249999, 1),
                                      (250000, 1), (2**63, 5)])
    def test_work_limits_admit_gf_queries(self, R, n):
        # the CI smoke runs, the README, the largest n, and ranges far past n
        parser = cli.build_parser()
        cli._validate(parser.parse_args(["gf", "--R", str(R), "--n", str(n)]), parser)

    def test_gf_queries_up_to_the_accuracy_limit_are_within_both_limits(self):
        # both routes see R only through S = min(R, n), so R = S covers every R
        for n in range(1, gf.TRANSFORM_MAX_N + 1):
            for S in range(1, n + 1):
                work, cells = map(sum, zip(gf.dp_cost(S, n), gf.transform_cost(S, n)))
                assert work <= gf.MAX_WORK and cells <= gf.MAX_CELLS
            for R in (n + 1, 2**63):
                assert gf.dp_cost(R, n) == gf.dp_cost(n, n)
                assert gf.transform_cost(R, n) == gf.transform_cost(n, n)

    def test_tau_h_inf_literal_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--R", "2", "--n", "5",
                             "--reps", "2", "--seed", "0", "--tau-h", "inf")
        assert code == 0


def test_commands_run_without_scipy():
    # scipy is a test-only oracle: one query of each command, in a fresh
    # interpreter, must not import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = """
import os
import sys
from tricklelab.cli import main
for argv in (
    ["analyze", "--R", "3"],
    ["exact", "--R", "3", "--n", "10"],
    ["gf", "--R", "3", "--n", "8"],
    ["simulate", "--R", "3", "--n", "10", "--reps", "20", "--seed", "1"],
    ["simulate", "--R", "3", "--n", "10", "--reps", "3", "--seed", "1", "--engine", "protocol"],
    ["compare", "--R", "3", "--n", "10", "--reps", "20", "--seed", "1"],
    ["sweep-eta", "--R", "3", "--steps", "5"],
):
    assert main(argv + ["--out", os.devnull]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# --- fuzzing the flags ---------------------------------------------------------

# small valid values often, so that queries run as well as get refused
INTS = st.one_of(
    st.integers(1, 12).map(str),
    st.integers(1, 12).map(str),
    st.integers(-3, 0).map(str),
    st.sampled_from(["40", "1000", str(10**12), str(2**63), str(10**30), str(-10**30),
                     "nan", "inf", "-inf", "1e3", "2.5", "", "x"]))
FLOATS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(-0.5, 1.5).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e308", "1e-320", "", "x"]))
FORMATS = st.sampled_from(["csv", "json", "xml", ""])
REPS = st.integers(0, 4).map(str)  # small, so that admitted samplings stay quick
FLAGS = {"--R": INTS, "--n": INTS, "--eta": FLOATS, "--steps": INTS, "--format": FORMATS,
         "--reps": REPS}
RUNS = {  # (required flags, optional flags)
    "analyze": (("--R",), ("--eta", "--format")),
    "sweep-eta": (("--R",), ("--steps", "--format")),
    "exact": (("--R", "--n"), ("--eta", "--format")),
    "gf": (("--R", "--n"), ("--eta", "--format")),
    "simulate": (("--R", "--n", "--reps"), ("--eta", "--format")),
    "compare": (("--R", "--n", "--reps"), ("--eta", "--format")),
}


def exit_code(argv) -> int:
    """main's exit code, or 1 where it raises, as a traceback would exit."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            return 1


@st.composite
def fuzzed_query(draw):
    command = draw(st.sampled_from(sorted(RUNS)))
    required, optional = RUNS[command]
    argv = [command, "--out", os.devnull]
    for flag in required:
        argv += [flag, draw(FLAGS[flag])]
    for flag in optional:
        value = draw(st.none() | FLAGS[flag])
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_query())
def test_fuzzed_flags_exit_0_2_or_3(argv):
    assert exit_code(argv) in (0, 2, 3), argv


VALID_SAMPLING = {"--R": "3", "--n": "10", "--eta": "0.5", "--reps": "5", "--seed": "1",
                  "--k": "1", "--tau-h": "inf", "--engine": "renewal", "--format": "csv"}
INVALID_SAMPLING = {
    "--R": ["0", "-1", "nan", "2.5", "x", str(-10**30)],
    "--n": ["0", "-5", "inf", ""],
    "--eta": ["nan", "-0.1", "1.5", "inf", "-inf", "x"],
    "--reps": ["0", "-1", "1e3"],
    "--seed": ["-1", "x", "nan"],
    "--k": ["0", "-2", "2.5"],
    "--tau-h": ["0.5", "0", "-1", "nan", "-inf", "x"],
    "--engine": ["bogus", ""],
    "--format": ["xml"],
}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(["simulate", "compare"]),
       st.dictionaries(st.sampled_from(sorted(INVALID_SAMPLING)), st.integers(0, 5),
                       min_size=1))
def test_fuzzed_invalid_sampling_flags_exit_2(command, broken):
    flags = dict(VALID_SAMPLING)
    for flag, pick in broken.items():
        choices = INVALID_SAMPLING[flag]
        flags[flag] = choices[pick % len(choices)]
    argv = [command, "--out", os.devnull] + [x for kv in flags.items() for x in kv]
    assert exit_code(argv) == 2, argv


def run_capped(*argv):
    """main(argv) in a child whose address space is capped at 2 GiB, so that
    an allocation fails the same way wherever memory is overcommitted."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
              "from tricklelab.cli import main; "
              "sys.exit(main(sys.argv[1:] + ['--out', __import__('os').devnull]))")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_huge_reps_exits_0_2_or_3():
    result = run_capped("simulate", "--R", "3", "--n", "10", "--reps", "10000000000000")
    assert result.returncode in (0, 2, 3), result.stderr[-500:]


def test_huge_protocol_line_exits_2():
    # the node arrays of n + 1 = 1e9 nodes would not fit under the cap
    result = run_capped("simulate", "--engine", "protocol", "--R", "5",
                        "--n", "1000000000", "--reps", "1")
    assert result.returncode == 2, result.stderr[-500:]
    assert "over the limit" in result.stderr and "Traceback" not in result.stderr


@st.composite
def valid_sampling_query(draw):
    """simulate or compare with every flag in its valid range; the protocol
    engine's time grows with n and reps, so both stay small there."""
    command = draw(st.sampled_from(["simulate", "compare"]))
    engine = draw(st.sampled_from(["renewal", "protocol"]))
    small = engine == "protocol"
    # mostly the paper's model (k = 1, unbounded tau_h), which every
    # command and engine takes
    paper = draw(st.sampled_from([True, True, False]))
    flags = {
        "--R": draw(st.integers(1, 40)),
        "--n": draw(st.integers(1, 200) if small else st.integers(1, 3000) | st.integers(1, 12)),
        "--reps": draw(st.integers(2 if command == "compare" else 1, 20 if small else 3000)),
        "--eta": draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        "--seed": draw(st.integers(0, 2**64)),
        "--k": 1 if paper else draw(st.sampled_from([1, 2, 3, 5])),
        "--tau-h": "inf" if paper else draw(st.sampled_from(["inf", "1", "2", "4", "16", "1e300"])
                                            | st.floats(1.0, 64.0)),
        "--engine": engine,
        "--format": draw(st.sampled_from(["csv", "json"])),
    }
    return [command, "--out", os.devnull] + [str(x) for kv in flags.items() for x in kv]


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_sampling_query())
def test_fuzzed_valid_sampling_flags_exit_0_2_or_3(argv):
    # 2 for the combinations one engine or the analytic column cannot take
    # (renewal with k > 1 or finite tau_h), 3 for a protocol event that does
    # not finish within its horizon
    assert exit_code(argv) in (0, 2, 3), argv
