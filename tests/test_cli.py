"""End-to-end CLI checks via main(argv): formats, exit codes, round trips."""

import csv
import io
import json

import pytest

import searelay as sr
from searelay.cli import PRESET_DIR_ENV, main

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
    ("--preset", "blue", "--n", "3", "--l", "nan"),
    ("--preset", "blue", "--n", "3", "--l", "inf"),
    ("--preset", "blue", "--n", "3", "--l", "100", "--tol-q", "nan"),
    ("--preset", "red", "--n", "1", "--l", "1e4"),  # R(L/n) underflows to 0
])
def test_non_finite_or_underflowing_input_exits_2(capsys, flags):
    code, out, err = run(capsys, "solve", *flags)
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


def test_eval_nan_placement_row_exits_2(capsys, tmp_path):
    path = tmp_path / "placement.csv"
    path.write_text("index,distance_m\n1,250\n2,nan\n")
    code, out, err = run(capsys, "eval", "--preset", "blue",
                         "--placement", str(path))
    assert code == 2
    assert not out
    assert "distances" in err


def test_numeric_failure_exits_3(capsys):
    code, _, err = run(capsys, "solve2d", "--preset", "blue", "--n-h", "5",
                       "--l", "500", "--h", "500", "--n-l-max", "2")
    assert code == 3
    assert "numeric failure" in err


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


def test_perturb_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "perturb", "--preset", "blue", "--n", "5",
                       "--l", "300", "--sigma", "0", "2", "--trials", "50",
                       "--seed", "7")
    assert code == 0
    header, rows = read_csv(out)
    assert header == sr.PERTURB_CSV_HEADER
    assert len(rows) == 2
    named = dict(zip(header, rows[0]))
    assert named["n"] == "5"
    assert named["trials"] == "50"
    assert float(named["sigma"]) == 0.0
    assert float(named["std_q_sup"]) == 0.0
    # noise never helps on average
    assert float(rows[1][header.index("mean_q_sup")]) <= \
        float(rows[0][header.index("mean_q_sup")])


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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

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


def test_preset_dir_env(capsys, tmp_path, monkeypatch):
    (tmp_path / "murky.json").write_text(
        json.dumps({**BASE_CONFIG, "attenuation_per_m": 0.5}))
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "solve", "--preset", "murky", "--n", "3",
                       "--l", "50")
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    # murkier water than any built-in: lower supportable load than blue
    code, out_blue, _ = run(capsys, "solve", "--preset", "blue", "--n", "3",
                            "--l", "50")
    assert float(rows[0][3]) < float(read_csv(out_blue)[1][0][3])


def test_preset_dir_env_still_unknown(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
    code, _, err = run(capsys, "solve", "--preset", "murky", "--n", "3",
                       "--l", "50")
    assert code == 2
    assert "murky" in err


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
