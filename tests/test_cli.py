import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spikeot
from spikeot.cli import main, read_multichannel, read_samples, read_table


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_w1_identical_files(tmp_path, capsys):
    f = write(tmp_path, "a.txt", "0.5\n1.5\n2.5\n")
    code, out, _ = run_cli(capsys, "w1", f, f)
    assert code == 0
    config, rows = read_table(out)
    assert config["command"] == "w1"
    assert rows[0]["kind"] == "distance"
    assert rows[0]["value"] == 0


def test_w1_known_values(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0\n1\n")
    b = write(tmp_path, "b.txt", "0\n3\n")
    code, out, _ = run_cli(capsys, "w1", a, b)
    _, rows = read_table(out)
    assert code == 0
    assert rows[0]["value"] == pytest.approx(1.0)

    c = write(tmp_path, "c.txt", "0\n1\n2\n")
    code, out, _ = run_cli(capsys, "w1", a, c)
    _, rows = read_table(out)
    assert rows[0]["value"] == pytest.approx(0.5)


def test_w1_plan_rows(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0\n1\n")
    b = write(tmp_path, "b.txt", "0\n1\n2\n")
    code, out, _ = run_cli(capsys, "w1", a, b, "--plan")
    _, rows = read_table(out)
    plan_rows = [r for r in rows if r["kind"] == "plan_entry"]
    assert [(r["source"], r["target"]) for r in plan_rows] == [(0, 0), (0, 1), (1, 1), (1, 2)]
    assert math.fsum(r["mass"] for r in plan_rows) == pytest.approx(1.0)


def test_w1_composite(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0.0\n\n0.0\n")
    b = write(tmp_path, "b.txt", "3.0\n\n4.0\n")
    code, out, _ = run_cli(capsys, "w1", a, b, "--composite")
    _, rows = read_table(out)
    assert code == 0
    assert rows[0]["value"] == pytest.approx(5.0)
    assert rows[0]["channels"] == 2


def test_parse_failure_exit_code_and_diagnostic(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0.5\n1.0 oops\n")
    b = write(tmp_path, "b.txt", "1.0\n")
    code, _, err = run_cli(capsys, "w1", a, b)
    assert code == 2
    assert "2:5" in err
    assert "oops" in err


def test_empty_file_exit_code(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "# only a comment\n\n")
    b = write(tmp_path, "b.txt", "1.0\n")
    code, _, err = run_cli(capsys, "w1", a, b)
    assert code == 3
    assert "no sample values" in err


def test_comments_and_whitespace_parsing(tmp_path):
    path = write(tmp_path, "mixed.txt", "# header\n 1.0\t2.0 # trailing\n\n3.0\n")
    values = read_samples(path)
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
    blocks = read_multichannel(path)
    assert [list(b) for b in blocks] == [[1.0, 2.0], [3.0]]


def test_closed_form_command(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "1", "2", "1", "1")
    _, rows = read_table(out)
    assert code == 0
    assert rows[0]["mean"] == pytest.approx(5 / 6)

    code, out, _ = run_cli(capsys, "closed-form", "1", "1", "1", "1")
    _, rows = read_table(out)
    assert rows[0]["mean"] == pytest.approx(1.0)

    code, out, _ = run_cli(capsys, "closed-form", "1", "2", "1", "1", "--shift", "10")
    _, rows = read_table(out)
    assert rows[0]["mean"] == pytest.approx(10.5, rel=1e-6)


@pytest.mark.parametrize("extra, drift", [([], 0.0), (["--shift", "3"], 3.0)],
                         ids=["unshifted", "shifted"])
@pytest.mark.filterwarnings("error")
def test_closed_form_huge_orders(capsys, extra, drift):
    # k = l = 10^9: the gap is k (1/0.3 - 1/0.8) + shift, to within e^-(10^8)
    code, out, err = run_cli(capsys, "closed-form", "0.3", "0.8", "1000000000", "1000000000",
                             *extra)
    assert (code, err) == (0, "")
    _, rows = read_table(out)
    assert len(rows) == 1
    assert rows[0]["mean"] == pytest.approx(1e9 * 25 / 12 + drift, rel=1e-14)


def test_closed_form_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "closed-form", "0", "2", "1", "1")
    assert code == 2
    assert "rates" in err


def test_unknown_experiment_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "nope"])
    assert excinfo.value.code == 2


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--threads", "2", "closed-form", "1", "2", "3", "4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("env_seed, argv", [
    pytest.param(None, ["--seed", "-1", "closed-form", "1", "2", "1", "1"], id="negative-seed"),
    pytest.param("abc", ["closed-form", "1", "2", "1", "1"], id="env-seed-not-int"),
    pytest.param(None, ["experiment", "fig2", "--grid-step", "0"], id="fig2-zero-step"),
    pytest.param(None, ["experiment", "fig2", "--grid-step", "-0.25"], id="fig2-negative-step"),
    pytest.param(None, ["experiment", "fig2", "--grid-min", "3", "--grid-max", "2"],
                 id="fig2-reversed-grid"),
    pytest.param(None, ["experiment", "fig2", "--trials", "0"], id="fig2-zero-trials"),
    pytest.param(None, ["experiment", "fig3", "--trials", "0"], id="fig3-zero-trials"),
    pytest.param(None, ["experiment", "fig3", "--ratios=-1", "--trials", "5"],
                 id="fig3-negative-ratio"),
    pytest.param(None, ["experiment", "figB1", "--trials", "0"], id="figB1-zero-trials"),
    pytest.param(None, ["experiment", "shift", "--trials", "0"], id="shift-zero-trials"),
    pytest.param(None, ["experiment", "fig3", "--ratios=", "--trials", "5"], id="fig3-no-ratios"),
    pytest.param(None, ["experiment", "shift", "--shifts="], id="shift-no-shifts"),
    pytest.param(None, ["experiment", "fig2", "--grid-min", "0"], id="fig2-zero-rate"),
    pytest.param(None, ["experiment", "fig3", "--base-rate", "inf"], id="fig3-infinite-base-rate"),
    pytest.param(None, ["experiment", "fig3", "--base-rate", "1e30"], id="fig3-huge-base-rate"),
    pytest.param(None, ["experiment", "fig3", "--bins", "0", "--base-rate", "0.01",
                        "--trials", "5"], id="fig3-zero-bins"),
    pytest.param(None, ["experiment", "fig3", "--shifts=inf", "--trials", "5"],
                 id="fig3-infinite-shift"),
    pytest.param(None, ["experiment", "fig3", "--ratios", "1e307", "--trials", "5"],
                 id="fig3-huge-ratio"),
    pytest.param(None, ["experiment", "sliced-demo", "--trials", "0"], id="sliced-demo-trials"),
    pytest.param(None, ["experiment", "figB1", "--shifts=1"], id="figB1-shifts"),
    pytest.param(None, ["experiment", "fig2", "--shifts=1"], id="fig2-shifts"),
    pytest.param(None, ["closed-form", "1", "2", "100000000000000000000", "1"],
                 id="closed-form-order-beyond-2-53"),
    pytest.param(None, ["experiment", "fig3", "--base-rate", "1e15", "--trials", "1",
                        "--ratios", "1", "--shifts", "0"], id="fig3-base-rate-beyond-memory"),
])
@pytest.mark.filterwarnings("error")  # a bad input must stop before any numpy warning
def test_bad_input_exits_2_with_message(capsys, monkeypatch, env_seed, argv):
    if env_seed is None:
        monkeypatch.delenv("SPIKEOT_SEED", raising=False)
    else:
        monkeypatch.setenv("SPIKEOT_SEED", env_seed)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("spikeot: ")
    assert err.count("\n") == 1


def test_experiment_figb1_small(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "7", "experiment", "figB1", "--k-max", "3", "--trials", "500"
    )
    config, rows = read_table(out)
    assert code == 0
    assert config["rate1"] == 0.3
    assert [r["k"] for r in rows] == [1, 2, 3]
    for row in rows:
        assert row["limit"] == pytest.approx(25 / 12)
        assert row["normalized_mean"] == pytest.approx(row["mc_mean"] / row["k"])


def test_experiment_shift_small(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "7", "experiment", "shift",
        "--shifts=-1,0,1", "--trials", "300",
    )
    _, rows = read_table(out)
    assert code == 0
    assert [r["shift"] for r in rows] == [-1, 0, 1]


def test_experiment_fig2_small(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "7", "experiment", "fig2",
        "--grid-min", "1", "--grid-max", "2", "--grid-step", "0.5",
        "--n-samples", "2", "--trials", "200",
    )
    _, rows = read_table(out)
    assert code == 0
    cells = [r for r in rows if r["kind"] == "cell"]
    slices = [r for r in rows if r["kind"] == "harmonic_slice"]
    assert len(cells) == 9
    assert len(slices) == 3
    assert all(s["passed"] == 1 for s in slices)


def test_experiment_fig3_single_trial_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "7", "experiment", "fig3", "--trials", "1",
        "--ratios", "1", "--shifts", "0",
    )
    _, rows = read_table(out)
    assert code == 0
    assert rows[0]["trials"] == 1


def test_experiment_sliced_demo(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "7", "experiment", "sliced-demo",
        "--directions", "500", "--cloud-size", "32",
    )
    _, rows = read_table(out)
    assert code == 0
    row = rows[0]
    assert row["analytic"] == pytest.approx(2 / math.pi)
    assert abs(row["estimate"] - row["analytic"]) < 4 * row["std_error"]


def test_features_sd_zero_row(tmp_path, capsys):
    f = write(tmp_path, "a.txt", "0.1\n0.2\n0.9\n")
    code, out, _ = run_cli(capsys, "features", f, "--kind", "sd", "--ref", f, "--bands", "10")
    _, rows = read_table(out)
    assert code == 0
    assert all(rows[0][f"c{i}"] == 0 for i in range(1, 11))


def test_features_sd_shifted_constant_row(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0.0\n1.0\n2.0\n")
    b = write(tmp_path, "b.txt", "4.0\n5.0\n6.0\n")
    code, out, _ = run_cli(capsys, "features", a, "--kind", "sd", "--ref", b)
    _, rows = read_table(out)
    for i in range(1, 11):
        assert rows[0][f"c{i}"] == pytest.approx(0.4)


def test_features_js_disjoint_saturation(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0.0\n0.5\n1.0\n")
    b = write(tmp_path, "b.txt", "5.0\n5.5\n6.0\n")
    code, out, _ = run_cli(capsys, "features", a, "--kind", "js", "--ref", b, "--bins", "10")
    _, rows = read_table(out)
    total = math.fsum(rows[0][f"v{i}"] for i in range(1, 11))
    assert total == pytest.approx(math.log(2.0), rel=1e-12)


def test_features_hausdorff(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0\n1\n")
    b = write(tmp_path, "b.txt", "0\n1\n2\n")
    code, out, _ = run_cli(capsys, "features", a, "--kind", "hausdorff", "--ref", b)
    _, rows = read_table(out)
    assert rows[0]["h_xy"] == 0
    assert rows[0]["h_yx"] == 1


def test_round_trip_csv_and_jsonl(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "0.111111111111111111\n0.7\n")
    b = write(tmp_path, "b.txt", "0.2\n0.9\n1.3\n")
    code, out_csv, _ = run_cli(capsys, "w1", a, b, "--plan")
    _, rows_csv = read_table(out_csv, fmt="csv")
    code, out_jsonl, _ = run_cli(capsys, "--format", "jsonl", "w1", a, b, "--plan")
    _, rows_jsonl = read_table(out_jsonl, fmt="jsonl")
    assert len(rows_csv) == len(rows_jsonl)
    for rc, rj in zip(rows_csv, rows_jsonl):
        for key, value in rj.items():
            if isinstance(value, float):
                assert rc[key] == value  # 17 significant digits round-trip losslessly
    first = json.loads(out_jsonl.splitlines()[0])
    assert "config" in first


def test_output_file_and_seed_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    for out in (out1, out2):
        code = main(["--seed", "99", "--output", str(out), "experiment", "figB1",
                     "--k-max", "2", "--trials", "200"])
        capsys.readouterr()
        assert code == 0
    assert out1.read_text() == out2.read_text()


def test_env_var_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPIKEOT_SEED", "555")
    code, out, _ = run_cli(capsys, "experiment", "figB1", "--k-max", "1", "--trials", "200")
    config, _ = read_table(out)
    assert config["seed"] == 555
    monkeypatch.setenv("SPIKEOT_SEED", "556")
    _, out2, _ = run_cli(capsys, "experiment", "figB1", "--k-max", "1", "--trials", "200")
    config2, _ = read_table(out2)
    assert config2["seed"] == 556
    assert out != out2


def test_import_leaves_out_scipy_integrate():
    # only the time-varying quadrature needs scipy.integrate, so startup skips it
    src = os.path.dirname(os.path.dirname(spikeot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, spikeot.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
