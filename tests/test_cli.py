"""End-to-end CLI checks via main(argv): formats, exit codes, round trips."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import searelay as sr
import searelay.cli as cli
from searelay.cli import main

BASE_CONFIG = {
    "transmit_power_W": 0.5,
    "noise_power_W": 2e-6,
    "aperture_diameter_m": 0.2,
    "misalignment_deg": 10.0,
    "half_beamwidth_deg": 10.0,
    "attenuation_per_m": 2e-2,
    "epsilon_m": 1.0,
    "bandwidth_Hz": 5e8,
}

FEC_CONFIG = {
    "modulation_bits_per_symbol": 2,
    "code_rate": 0.5,
    "snr_threshold": 10.0,
    "scaled_gain": 1e9,
    "attenuation_per_m": 2e-2,
    "epsilon_m": 1.0,
    "geometric_exponent": 2.0,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_csv_stdout(capsys):
    code, out, err = run(capsys, "solve", "--preset", "blue", "--n", "10",
                         "--l", "500")
    assert code == 0 and err == ""
    header, rows = read_csv(out)
    assert header == ["index", "distance_m", "position_m", "q_sup", "q0", "L0",
                      "branch", "gamma", "iterations", "bracket_width"]
    assert len(rows) == 10
    assert [r[0] for r in rows] == [str(i) for i in range(1, 11)]
    d = [float(r[1]) for r in rows]
    assert sum(d) == pytest.approx(500.0, rel=1e-6)
    assert all(b > a for a, b in zip(d, d[1:]))
    assert float(rows[-1][2]) == pytest.approx(500.0, rel=1e-6)
    # one q_sup for the whole run
    assert len({r[3] for r in rows}) == 1


def test_solve_json_roundtrip_through_eval(capsys, tmp_path):
    out_path = tmp_path / "placement.json"
    code, _, _ = run(capsys, "solve", "--preset", "blue", "--n", "10",
                     "--l", "500", "--format", "json", "-o", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["n"] == 10
    assert len(obj["distances"]) == 10
    assert obj["branch"] in ("case-i", "case-ii") or obj["branch"]
    code, out, _ = run(capsys, "eval", "--preset", "blue",
                       "--placement", str(out_path), "--format", "json")
    assert code == 0
    back = json.loads(out)
    assert back["n"] == 10
    assert back["q_sup"] == pytest.approx(obj["q_sup"], rel=1e-4)
    assert back["bottleneck_hop"] in range(1, 11)


def test_solve_csv_roundtrip_through_eval(capsys, tmp_path):
    out_path = tmp_path / "placement.csv"
    code, _, _ = run(capsys, "solve", "--preset", "green", "--n", "5",
                     "--l", "120", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--preset", "green",
                       "--placement", str(out_path))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "l", "q_sup", "delta", "bottleneck_hop"]
    assert rows[0][0] == "5"
    assert float(rows[0][1]) == pytest.approx(120.0, rel=1e-6)
    assert float(rows[0][3]) == pytest.approx(float(rows[0][2]) / 5, rel=1e-6)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_placement_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "nope.csv"
    code, out, err = run(capsys, "eval", "--placement", str(missing))
    assert code == 2
    assert str(missing) in err


def test_placement_json_without_distances_exits_2(capsys, tmp_path):
    path = tmp_path / "spacings.json"
    path.write_text('{"spacings": [100, 200]}')
    code, out, err = run(capsys, "eval", "--preset", "blue", "--placement", str(path))
    assert code == 2
    assert not out
    assert f"placement file {path}: no 'distances' key or column" in err


def test_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--preset", "ultraviolet",
                       "--n", "3", "--l", "100")
    assert code == 2
    assert "ultraviolet" in err


def test_bad_value_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--preset", "blue", "--n", "0",
                       "--l", "100")
    assert code == 2
    assert err


@pytest.mark.parametrize("flags", [
    ("solve", "--preset", "blue", "--n", "3", "--l", "nan"),
    ("solve", "--preset", "blue", "--n", "3", "--l", "inf"),
    ("solve", "--preset", "blue", "--n", "3", "--l", "100", "--tol-q", "nan"),
    ("solve", "--preset", "red", "--n", "1", "--l", "1e4"),  # R(L/n) underflows to 0
    ("solve", "--preset", "blue", "--n", "3", "--l", "1e-310"),  # R(L/n) n / L overflows
    # R of a 3000 m riser hop, and of a stored placement's 2900 m hop, underflows to 0
    ("compare", "--preset", "red", "--n", "10", "--l", "500", "--vertical-depth", "3000",
     "--vertical-nl", "1", "--vertical-nv", "1"),
    ("eval", "--preset", "red", "--placement", "hop_2900m.json"),
])
def test_non_finite_or_underflowing_input_exits_2(capsys, tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    Path("hop_2900m.json").write_text('{"distances": [100.0, 2900.0]}')
    code, out, err = run(capsys, *flags)
    assert code == 2
    assert not out
    assert "invalid configuration" in err


@pytest.mark.parametrize("flags,field", [
    (("--q-factor", "nan"), "packet_rate"),
    (("--probe-factors", "0.9,nan"), "q_grid"),
    (("--probe-factors", "0.9,1.1", "--data-size", "nan"), "--data-size"),
    (("--data-size", "0"), "--data-size"),
    (("--data-size", "inf"), "--data-size"),
    (("--q-factor", "0"), "packet_rate"),
])
def test_simulate_non_finite_input_exits_2(capsys, flags, field):
    code, out, err = run(capsys, "simulate", "--preset", "blue", "--n", "1",
                         "--l", "100", "--horizon-packets", "500", *flags)
    assert code == 2
    assert not out
    assert field in err


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_perturb_non_finite_sigma_exits_2(capsys, sigma):
    code, out, err = run(capsys, "perturb", "--preset", "blue", "--n", "10",
                         "--l", "500", "--sigma", "1", sigma, "--trials", "20")
    assert code == 2
    assert not out
    assert "sigma" in err


@pytest.mark.filterwarnings("error")
def test_perturb_huge_finite_sigma_exits_0(capsys):
    code, out, err = run(capsys, "perturb", "--preset", "blue", "--n", "10",
                         "--l", "500", "--sigma", "1e308", "--trials", "10")
    assert code == 0
    assert not err
    assert read_csv(out)[1][0][4] == "1e+308"


def test_perturb_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "perturb", "--preset", "blue", "--n", "10",
                         "--l", "500", "--sigma", "1", "--trials", "20",
                         "--seed", "-1")
    assert code == 2
    assert not out
    assert "seed" in err


def test_eval_nan_placement_row_exits_2(capsys, tmp_path):
    path = tmp_path / "placement.csv"
    path.write_text("index,distance_m\n1,250\n2,nan\n")
    code, out, err = run(capsys, "eval", "--preset", "blue",
                         "--placement", str(path))
    assert code == 2
    assert not out
    assert "distances" in err


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("name,text", [
    ("scalar.json", '{"distances": 5}'),
    ("null.json", '{"distances": [100, null]}'),
    ("short_row.csv", "index,distance_m\n1,100\n2\n"),
    ("broken.json", '{"distances": [100, 200'),
    ("text_cell.csv", "index,distance_m\n1,100\n2,far\n"),
])
def test_malformed_placement_exits_2(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, command, "--preset", "blue",
                         "--placement", str(path))
    assert code == 2
    assert not out
    assert f"placement file {path}: " in err


def test_numeric_failure_exits_3(capsys):
    code, _, err = run(capsys, "solve2d", "--preset", "blue", "--n-h", "5",
                       "--l", "500", "--h", "500", "--n-l-max", "2")
    assert code == 3
    assert "numeric failure" in err


def test_load_root_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(sr.solver1d, "_MAX_LOAD_ITERS", 1)
    code, out, err = run(capsys, "solve", "--preset", "blue", "--n", "3", "--l", "300")
    assert code == 3
    assert not out
    assert "numeric failure: load root did not converge in 1 recursions" in err


def test_inconclusive_probe_exits_3(capsys, monkeypatch):
    def inconclusive(*args, **kwargs):
        raise sr.InconclusiveProbeError("stable above an unstable load")

    monkeypatch.setattr(cli.sq, "stability_probe", inconclusive)
    code, out, err = run(capsys, "simulate", "--preset", "blue", "--n", "1",
                         "--l", "200", "--probe-factors", "0.9,1.1")
    assert code == 3
    assert not out
    assert "numeric failure: stable above an unstable load" in err


@pytest.mark.parametrize("depth", ["nan", "inf", "0"])
def test_compare_non_finite_depth_exits_2(capsys, depth):
    code, out, err = run(capsys, "compare", "--preset", "blue", "--n", "10",
                         "--l", "500", "--vertical-depth", depth,
                         "--vertical-nl", "1")
    assert code == 2
    assert not out
    assert "depth and length must be finite" in err


@pytest.mark.parametrize("flag,value", [
    ("--l-min", "nan"), ("--l-max", "inf"), ("--l-step", "nan"),
])
def test_sweep_l_non_finite_range_exits_2(capsys, flag, value):
    flags = {"--l-min": "100", "--l-max": "300", "--l-step": "100", flag: value}
    code, out, err = run(capsys, "sweep-l", "--preset", "blue", "--n", "2",
                         *[x for kv in flags.items() for x in kv])
    assert code == 2
    assert not out
    assert f"{flag} must be finite" in err


@pytest.mark.parametrize("argv", [
    ("sweep-l", "--preset", "blue", "--n", "2", "--l-values", "200,abc"),
    ("simulate", "--preset", "blue", "--n", "1", "--l", "100",
     "--horizon-packets", "500", "--probe-factors", "0.9,abc"),
])
def test_non_numeric_list_entry_exits_2(capsys, argv):
    # rejected as the parser rejects "--l abc", naming the flag
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert not captured.out
    assert f"argument {argv[-2]}: invalid" in captured.err
    assert repr(argv[-1]) in captured.err


def test_unwritable_output_exits_2(capsys, tmp_path):
    missing = tmp_path / "no_such_dir" / "x.csv"
    code, out, err = run(capsys, "sweep-n", "--preset", "blue", "--n-max", "2",
                         "--l", "500", "-o", str(missing))
    assert code == 2
    assert f"cannot write output {missing}: " in err
    code, out, err = run(capsys, "simulate", "--preset", "blue", "--n", "1",
                         "--l", "200", "--horizon-packets", "500",
                         "--timeseries", str(missing))
    assert code == 2
    assert not out
    assert f"cannot write output {missing}: " in err


def test_probe_with_timeseries_exits_2(capsys, tmp_path):
    # a probe makes many runs, and --timeseries writes one run's samples
    series = tmp_path / "series.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "blue", "--n", "4", "--l", "200",
              "--probe-factors", "0.8,1.2", "--timeseries", str(series)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert not captured.out
    assert "--timeseries" in captured.err and "--probe-factors" in captured.err
    assert not series.exists()


@pytest.mark.parametrize("argv", [
    ("solve", "--config", "{dir}", "--n", "2", "--l", "10"),
    ("solve", "--rate-model", "fec", "--fec-config", "{dir}", "--n", "2", "--l", "10"),
    ("eval", "--preset", "blue", "--placement", "{dir}"),
], ids=["config", "fec-config", "placement"])
def test_directory_as_input_file_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 2
    assert not out
    assert f"file {tmp_path}: " in err


def test_argparse_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "blue"])  # --n and --l missing
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "blue", "--config", "x.json",
              "--n", "3", "--l", "100"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_n_rows_and_baseline(capsys):
    code, out, _ = run(capsys, "sweep-n", "--preset", "blue", "--n-min", "2",
                       "--n-max", "6", "--l", "400")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "l", "q_sup", "delta", "q_sup_constant",
                      "delta_constant"]
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
    for r in rows:
        assert float(r[2]) > float(r[4])  # optimal beats equal spacing
    qs = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("model", ["red", "green", "blue", "fec"])
def test_sweep_n_constant_column_matches_per_n(tmp_path, model):
    # the equal-spacing column, one hop_limits call over every n, is each
    # n's constant_placement evaluated on its own, to the bit
    argv = ["sweep-n", "--n-max", "40"]
    if model == "fec":
        cfg = tmp_path / "fec.json"
        cfg.write_text(json.dumps(FEC_CONFIG))
        argv += ["--rate-model", "fec", "--fec-config", str(cfg)]
    else:
        argv += ["--preset", model]
    for length in (3.0, 150.0, 1000.0):
        args = cli._parser().parse_args(argv + ["--l", str(length)])
        rate, meta = cli._build_rate(args)
        rows, _ = cli._cmd_sweep_n(args, rate, meta)
        for row in rows:
            qc = sr.qsup_of_placement(sr.constant_placement(row["n"], length), rate).q_sup
            assert (row["q_sup_constant"], row["delta_constant"]) == (qc, qc / row["n"])


def test_sweep_l_range_and_values(capsys):
    code, out, _ = run(capsys, "sweep-l", "--preset", "blue", "--n", "4",
                       "--l-min", "100", "--l-max", "300", "--l-step", "100")
    assert code == 0
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [100.0, 200.0, 300.0]
    qs = [float(r[2]) for r in rows]
    assert qs[0] > qs[1] > qs[2]

    code, out, _ = run(capsys, "sweep-l", "--preset", "blue", "--n", "4",
                       "--l-values", "250,150")
    assert code == 0
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [250.0, 150.0]

    code, _, err = run(capsys, "sweep-l", "--preset", "blue", "--n", "4")
    assert code == 2


def test_sweep_l_descending_range_exits_2(capsys):
    code, out, err = run(capsys, "sweep-l", "--preset", "blue", "--n", "2",
                         "--l-min", "300", "--l-max", "100", "--l-step", "50")
    assert code == 2
    assert not out
    assert "l-min <= l-max" in err


# ---------------------------------------------------------------------------
# 2-D, perturb, compare
# ---------------------------------------------------------------------------

def test_solve2d_csv(capsys):
    code, out, _ = run(capsys, "solve2d", "--preset", "blue", "--n-h", "5",
                       "--l", "500", "--h", "500")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "l_spacing_m", "h_spacing_m", "q_sup", "q_x",
                      "q_y", "n_l", "n_h", "total_nodes"]
    n_l = int(rows[0][6])
    n_h = int(rows[0][7])
    assert n_h == 5
    assert len(rows) == max(n_l, n_h)
    assert int(rows[0][8]) == (n_l + 1) * (n_h + 1) - 1
    # shorter family pads with blanks
    assert rows[-1][1] == "" or rows[-1][2] == ""
    assert float(rows[0][5]) == float(rows[0][3])  # q_sup = q_y


def test_solve2d_where_one_hop_underflows(capsys):
    # R(11958 m) underflows in green water; the row needs 20 columns
    code, out, _ = run(capsys, "solve2d", "--preset", "green", "--n-h", "2",
                       "--l", "11958", "--h", "1219")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "l_spacing_m", "h_spacing_m", "q_sup", "q_x",
                      "q_y", "n_l", "n_h", "total_nodes"]
    assert int(rows[0][6]) == 20 and len(rows) == 20
    assert float(rows[0][5]) == float(rows[0][3]) < float(rows[0][4])


def test_perturb_csv_header_and_rows(capsys, blue_rate):
    code, out, _ = run(capsys, "perturb", "--preset", "blue", "--n", "5",
                       "--l", "300", "--sigma", "0", "2", "--trials", "50",
                       "--seed", "7")
    assert code == 0
    header, rows = read_csv(out)
    assert header == sr.PERTURB_CSV_HEADER
    assert len(rows) == 2
    named = [dict(zip(header, r)) for r in rows]
    assert named[0]["n"] == "5"
    assert named[0]["trials"] == "50"
    assert [r["sigma"] for r in named] == ["0", "2"]
    assert float(named[0]["std_q_sup"]) == 0.0
    # one digest of the channel configuration on every row
    assert re.fullmatch("[0-9a-f]{12}", named[0]["config_hash"])
    assert named[1]["config_hash"] == named[0]["config_hash"]
    stats = sr.perturb_eval(sr.solve(blue_rate, 5, 300.0).placement, blue_rate,
                            2.0, trials=50, seed=7)
    assert float(named[1]["mean_q_sup"]) == pytest.approx(stats.mean_q_sup, rel=1e-8)
    # noise never helps on average
    assert float(named[1]["mean_q_sup"]) <= float(named[0]["mean_q_sup"])


def test_compare_rows(capsys):
    code, out, _ = run(capsys, "compare", "--preset", "blue", "--n", "10",
                       "--l", "500", "--vertical-depth", "3000",
                       "--vertical-nl", "1", "--vertical-nv", "5")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["placement", "nodes", "q_sup", "delta"]
    by_name = {r[0]: r for r in rows}
    assert set(by_name) == {"optimal", "constant", "vertical"}
    assert float(by_name["optimal"][2]) > float(by_name["constant"][2])
    assert float(by_name["optimal"][2]) > float(by_name["vertical"][2])
    assert by_name["vertical"][1] == "6"  # 1 riser, 5 hops -> 6 nodes


@pytest.mark.parametrize("n_v", ["0", "-1"])
def test_compare_vertical_nv_below_one_exits_2(capsys, n_v):
    # 0 hops per riser is an error, not the --n default
    code, out, err = run(capsys, "compare", "--preset", "blue", "--n", "10",
                         "--l", "500", "--vertical-depth", "3000",
                         "--vertical-nl", "1", "--vertical-nv", n_v)
    assert code == 2
    assert not out
    assert "n_v" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "simulate", "--preset", "blue", "--n", "5",
                         "--l", "500", "--seed", "-1")
    assert code == 2
    assert not out
    assert "seed" in err


def test_simulate_single_run_and_timeseries(capsys, tmp_path):
    ts = tmp_path / "backlog.csv"
    code, out, _ = run(capsys, "simulate", "--preset", "blue", "--n", "1",
                       "--l", "200", "--q-factor", "0.8",
                       "--horizon-packets", "3000", "--arrival",
                       "deterministic", "--timeseries", str(ts))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["node", "distance_m", "time_avg_queue", "end_queue",
                      "drift_slope", "q", "lambda", "stable", "delivered",
                      "generated"]
    assert len(rows) == 1
    assert rows[0][7] == "1"  # stable at 80% load
    with ts.open() as fh:
        ts_rows = list(csv.reader(fh))
    assert ts_rows[0] == ["time_s", "node_1"]
    assert len(ts_rows) == 1 + 2048


@pytest.mark.parametrize("models", [
    (), ("--arrival", "deterministic", "--size-dist", "exponential", "--data-size", "3e4"),
], ids=["defaults", "other-models"])
def test_simulate_single_run_is_one_sim_config(capsys, blue_rate, models):
    # a single run at --q-factor f is simulate() of one SimConfig at f * q_sup
    code, out, _ = run(capsys, "simulate", "--preset", "blue", "--n", "3",
                       "--l", "300", "--q-factor", "1.1", "--seed", "4",
                       "--horizon-packets", "3000", "--format", "json", *models)
    assert code == 0
    kw = dict(zip(("arrival_process", "packet_size", "mean_data_size"),
                  ("deterministic", "exponential", 3e4))) if models else {}
    res = sr.solve(blue_rate, 3, 300.0)
    cfg = sr.SimConfig(res.placement, 1.1 * res.q_sup, horizon_packets=3000,
                       seed=4, **kw)
    stats = sr.simulate(cfg, blue_rate)
    assert json.loads(out) == cli._rounded({
        "q": cfg.q, "lambda": cfg.packet_rate,
        "stable": sr.is_stable(stats, cfg.packet_rate),
        "total_drift_slope": stats.total_drift_slope,
        "delivered": stats.delivered, "generated": stats.generated,
        "time_avg_queue": stats.time_avg_queue, "end_queue": stats.end_queue,
        "drift_slope": stats.drift_slope})


def test_simulate_probe_mode(capsys):
    code, out, _ = run(capsys, "simulate", "--preset", "blue", "--n", "1",
                       "--l", "200", "--probe-factors", "0.9,1.1",
                       "--horizon-packets", "5000")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["q", "q_over_qsup", "stable", "total_drift_slope",
                      "end_backlog"]
    assert [r[2] for r in rows] == ["1", "0"]
    assert float(rows[0][1]) == pytest.approx(0.9, rel=1e-6)
    assert float(rows[1][1]) == pytest.approx(1.1, rel=1e-6)


def test_simulate_stored_placement(capsys, tmp_path):
    # a probe around the stored placement's own q_sup, which eval reports;
    # --n, --l and --tol-q are ignored
    path = tmp_path / "placement.json"
    code, _, _ = run(capsys, "solve", "--preset", "blue", "--n", "3", "--l", "300",
                     "--format", "json", "-o", str(path))
    assert code == 0
    _, out, _ = run(capsys, "eval", "--preset", "blue", "--placement", str(path),
                    "--format", "json")
    q_sup = json.loads(out)["q_sup"]
    probe = ("simulate", "--preset", "blue", "--placement", str(path),
             "--probe-factors", "0.8,1.2", "--horizon-packets", "5000")
    code, out, err = run(capsys, *probe, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["q_sup_analytic"] == q_sup
    code, out, _ = run(capsys, *probe)
    assert code == 0
    header, rows = read_csv(out)
    assert [float(r[header.index("q_over_qsup")]) for r in rows] == [0.8, 1.2]
    assert [r[header.index("stable")] for r in rows] == ["1", "0"]
    assert run(capsys, *probe, "--n", "7", "--l", "900", "--tol-q", "1") == (0, out, "")


# ---------------------------------------------------------------------------
# output formats: one set of named fields, as CSV or as JSON
# ---------------------------------------------------------------------------

SOLVE_JSON = ["n", "l", "q_sup", "q0", "L0", "branch", "gamma", "iterations",
              "bracket_width", "coverage_residual", "delta", "distances",
              "positions"]
FORMAT_CASES = {
    # name: (argv, CSV header, JSON keys: of each element when JSON is a list)
    "solve": (("solve", "--preset", "blue", "--n", "4", "--l", "300"),
              ["index", "distance_m", "position_m", "q_sup", "q0", "L0",
               "branch", "gamma", "iterations", "bracket_width"], SOLVE_JSON),
    "eval": (("eval", "--preset", "blue", "--placement", "{placement}"),
             ["n", "l", "q_sup", "delta", "bottleneck_hop"],
             ["n", "l", "q_sup", "delta", "bottleneck_hop"]),
    "sweep-n": (("sweep-n", "--preset", "blue", "--n-max", "3", "--l", "300"),
                ["n", "l", "q_sup", "delta", "q_sup_constant", "delta_constant"],
                ["n", "l", "q_sup", "delta", "q_sup_constant", "delta_constant"]),
    "sweep-l": (("sweep-l", "--preset", "blue", "--n", "3", "--l-values", "200,300"),
                ["n", "l", "q_sup", "delta"], ["n", "l", "q_sup", "delta"]),
    "solve2d": (("solve2d", "--preset", "blue", "--n-h", "2", "--l", "150",
                 "--h", "100"),
                ["index", "l_spacing_m", "h_spacing_m", "q_sup", "q_x", "q_y",
                 "n_l", "n_h", "total_nodes"],
                ["n_l", "n_h", "total_nodes", "l", "h", "q_sup", "q_x", "q_y",
                 "l_spacings", "h_spacings"]),
    "perturb": (("perturb", "--preset", "blue", "--n", "4", "--l", "300",
                 "--sigma", "0", "3", "--trials", "40"),
                sr.PERTURB_CSV_HEADER,
                ["sigma", "trials", "seed", "mean_q_sup", "std_q_sup",
                 "mean_delta", "rng_algorithm", "config_hash", "n", "l",
                 "q_sup_exact"]),
    "compare": (("compare", "--preset", "blue", "--n", "4", "--l", "300",
                 "--vertical-depth", "1000", "--vertical-nl", "2"),
                ["placement", "nodes", "q_sup", "delta"],
                ["placement", "nodes", "q_sup", "delta"]),
    "simulate": (("simulate", "--preset", "blue", "--n", "2", "--l", "200",
                  "--horizon-packets", "2000"),
                 ["node", "distance_m", "time_avg_queue", "end_queue",
                  "drift_slope", "q", "lambda", "stable", "delivered",
                  "generated"],
                 ["q", "lambda", "stable", "total_drift_slope", "delivered",
                  "generated", "time_avg_queue", "end_queue", "drift_slope"]),
    "simulate-probe": (("simulate", "--preset", "blue", "--n", "1", "--l", "200",
                        "--probe-factors", "0.5,2", "--horizon-packets", "2000"),
                       ["q", "q_over_qsup", "stable", "total_drift_slope",
                        "end_backlog"],
                       ["q_sup_analytic", "q_stable", "q_unstable", "points"]),
}


def json_records(data, n_rows):
    """The JSON record behind each CSV row: the list's elements, the probe's
    points, or the one object (whose lists hold one entry per row)."""
    if isinstance(data, list):
        return data
    return data.get("points", [data] * n_rows)


def same_value(cell, value):
    if value is None:
        return cell == ""
    if isinstance(value, str):
        return cell == value
    if isinstance(value, bool):
        return cell == str(int(value))
    return float(cell) == value


@pytest.mark.parametrize("name", list(FORMAT_CASES))
def test_output_formats_name_the_same_fields(capsys, tmp_path, name):
    argv, header, json_keys = FORMAT_CASES[name]
    placement = tmp_path / "placement.csv"
    placement.write_text("index,distance_m\n1,100\n2,150\n")
    argv = [a.format(placement=placement) for a in argv]
    code, out_csv, _ = run(capsys, *argv)
    assert code == 0
    code, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    csv_header, rows = read_csv(out_csv)
    assert csv_header == header
    data = json.loads(out_json)
    if isinstance(data, list):
        assert all(list(d) == json_keys for d in data)
    else:
        assert list(data) == json_keys
    if "points" in data:
        assert all(list(p) == ["q", "stable", "total_drift_slope", "end_backlog"]
                   for p in data["points"])
    records = json_records(data, len(rows))
    assert rows and len(records) == len(rows)
    for i, (row, record) in enumerate(zip(rows, records)):
        shared = [c for c in header if c in record]
        assert len(shared) >= 3
        for column in shared:
            value = record[column]
            if isinstance(value, list):
                value = value[i]
            assert same_value(row[header.index(column)], value), (column, i)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_file_matches_builtin_preset(capsys, tmp_path):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps(BASE_CONFIG))
    code_a, out_a, _ = run(capsys, "solve", "--config", str(cfg), "--n", "4",
                           "--l", "250")
    code_b, out_b, _ = run(capsys, "solve", "--preset", "blue", "--n", "4",
                           "--l", "250")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_fec_rate_model(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--rate-model", "fec", "--n", "3",
                       "--l", "100")
    assert code == 2
    assert "fec-config" in err.replace("_", "-")
    fec = tmp_path / "fec.json"
    fec.write_text(json.dumps(FEC_CONFIG))
    code, out, _ = run(capsys, "solve", "--rate-model", "fec",
                       "--fec-config", str(fec), "--n", "3", "--l", "100")
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    assert float(rows[0][3]) > 0.0


@pytest.mark.parametrize("argv,flags", [
    (("--fec-config", "{fec}"), ("--rate-model", "--fec-config")),
    (("--rate-model", "shannon", "--fec-config", "{fec}"), ("--rate-model", "--fec-config")),
    (("--rate-model", "fec", "--fec-config", "{fec}", "--preset", "red"),
     ("--preset", "--fec-config")),
    (("--rate-model", "fec", "--fec-config", "{fec}", "--config", "{cfg}"),
     ("--config", "--fec-config")),
], ids=["fec-config-alone", "fec-config-shannon", "fec-and-preset", "fec-and-config"])
def test_one_rate_source(capsys, tmp_path, argv, flags):
    # --rate-model fec goes with --fec-config, and --fec-config is a rate
    # source of its own, next to neither --preset nor --config
    fec, cfg = tmp_path / "fec.json", tmp_path / "cfg.json"
    fec.write_text(json.dumps(FEC_CONFIG))
    cfg.write_text(json.dumps(BASE_CONFIG))
    argv = ["solve", "--n", "3", "--l", "300",
            *[a.format(fec=fec, cfg=cfg) for a in argv]]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse rejects a second rate source
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    assert all(flag in captured.err for flag in flags)


@pytest.mark.parametrize("flag", ["--config", "--fec-config"])
@pytest.mark.parametrize("edit,message", [
    (lambda cfg: list(cfg), "expected a flat JSON object"),
    (lambda cfg: {**cfg, "bogus": 1}, "unknown keys ['bogus']"),
    (lambda cfg: {}, "missing keys"),
    (lambda cfg: {**cfg, "epsilon_m": "x"}, "['epsilon_m'] must be finite JSON numbers"),
    (lambda cfg: {**cfg, "epsilon_m": True}, "['epsilon_m'] must be finite JSON numbers"),
    (lambda cfg: {**cfg, "epsilon_m": float("nan")}, "must be finite JSON numbers"),
    (lambda cfg: {**cfg, "epsilon_m": -1.0}, "epsilon_m"),
], ids=["list", "unknown", "missing", "string", "bool", "nan", "negative"])
def test_bad_config_file_names_file_and_key(capsys, tmp_path, flag, edit, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(edit(BASE_CONFIG if flag == "--config" else FEC_CONFIG)))
    model = ("--rate-model", "fec") if flag == "--fec-config" else ()
    code, out, err = run(capsys, "solve", *model, flag, str(path), "--n", "3",
                         "--l", "100")
    assert code == 2
    assert not out
    assert f"config file {path}: " in err
    assert message in err


def test_fec_config_defaults_and_hash(capsys, tmp_path):
    # a file stating every key keeps its digest; one omitting a key with a
    # default is the same model, and prints the default it uses
    full, partial = tmp_path / "full.json", tmp_path / "partial.json"
    full.write_text(json.dumps(FEC_CONFIG))
    partial.write_text(json.dumps(
        {k: v for k, v in FEC_CONFIG.items() if k != "attenuation_per_m"}))
    outs = []
    for path in (full, partial):
        code, out, _ = run(capsys, "perturb", "--rate-model", "fec",
                           "--fec-config", str(path), "--n", "3", "--l", "5",
                           "--sigma", "0", "--trials", "2")
        assert code == 0
        header, rows = read_csv(out)
        outs.append(dict(zip(header, rows[0])))
    assert outs[0] == outs[1]
    assert outs[0]["config_hash"] == "7f84af250898"
    assert outs[0]["k_attenuation"] == "0.02"


def test_output_file_and_json_list(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run(capsys, "sweep-n", "--preset", "blue", "--n-min", "1",
                     "--n-max", "3", "--l", "200", "--format", "json",
                     "-o", str(out_path))
    assert code == 0
    objs = json.loads(out_path.read_text())
    assert [o["n"] for o in objs] == [1, 2, 3]
    assert all(o["delta"] == pytest.approx(o["q_sup"] / o["n"], rel=1e-6)
               for o in objs)


# ---------------------------------------------------------------------------
# the parser, built once per process
# ---------------------------------------------------------------------------

PARSER_RUNS = [
    ("sweep-n", "--preset", "blue", "--n-max", "4", "--l", "300"),
    ("solve", "--preset", "green", "--n", "3", "--l", "120", "--format", "json"),
    ("sweep-n", "--preset", "red", "--n-min", "2", "--n-max", "3", "--l", "80",
     "--format", "json"),
    ("solve", "--preset", "ultraviolet", "--n", "3", "--l", "100"),   # exit 2
    ("solve2d", "--preset", "blue", "--n-h", "2", "--l", "150", "--h", "100"),
    ("sweep-n", "--preset", "blue", "--n-min", "3", "--n-max", "2", "--l", "50"),
    ("solve", "--preset", "blue", "--n", "2", "--l", "200"),
    ("sweep-l", "--preset", "green", "--n", "2", "--l-values", "50,100",
     "--format", "json"),
    ("solve", "--preset", "blue", "--n", "2", "--l", "200"),
]


def run_all(capsys, runs):
    return [run(capsys, *argv) for argv in runs]


def test_repeated_main_matches_fresh_parser(capsys, monkeypatch):
    # calls that mix subcommands, presets and formats through the one
    # parser give what a parser built for each call gives
    shared = run_all(capsys, PARSER_RUNS)
    assert cli._parser() is cli._parser()
    # an argparse error exits and leaves the parser usable
    with pytest.raises(SystemExit):
        main(["solve", "--preset", "blue"])
    capsys.readouterr()
    again = run_all(capsys, PARSER_RUNS)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all(capsys, PARSER_RUNS)
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 2, 0, 0, 0]
    assert shared == again == fresh


def test_parser_not_built_at_import():
    # importing the CLI stays as cheap as before; main builds the parser
    code = ("import searelay.cli as c; print(c._parser.cache_info().currsize); "
            "c.main(['solve', '--n', '1', '--l', '10']); "
            "print(c._parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split()[0] == "0"
    assert out.stdout.split()[-1] == "1"
