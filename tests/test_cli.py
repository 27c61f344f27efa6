import hashlib
import json
import math
import os
import signal
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from navlim import cli, navinfo, simkit
from navlim.blockfim import SingularBlockError
from oracles import inline_random_walks


def run_cli(args, monkeypatch=None, env=None):
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    return cli.main(args)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def demo_scenario(tmp_path):
    spec = {
        "area": [20, 20],
        "anchors": [[2.0, 2.0], [18.0, 3.0], [10.0, 18.0]],
        "agents": 2,
        "T": 2,
        "intensities": {"lambda_kk": 5, "nu_kk": 5, "xi_kk": 0, "lambda_kj": 5},
        "step_cov": 1.0,
        "connectivity": "full",
        "seed": 3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    return path


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_time_shape(tmp_path):
    code = cli.main(
        [
            "sweep-time",
            "--trials",
            "4",
            "--steps",
            "1..5",
            "--agents",
            "2",
            "--anchors",
            "2",
            "--seed",
            "9",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "sweep_time.csv")
    assert len(rows) == 3 * 5
    assert {r["mode"] for r in rows} == {"spatial_only", "temporal_only", "joint"}


def test_sweep_time_deterministic_bytes(tmp_path):
    args = [
        "sweep-time",
        "--trials",
        "3",
        "--steps",
        "1..3",
        "--agents",
        "2",
        "--anchors",
        "2",
        "--seed",
        "5",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out1)]) == 0
    assert cli.main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "sweep_time.csv").read_bytes() == (out2 / "sweep_time.csv").read_bytes()


def test_sweep_nodes_shape(tmp_path):
    code = cli.main(
        [
            "sweep-nodes",
            "--trials",
            "2",
            "--agents",
            "1..3",
            "--steps",
            "2",
            "--anchors",
            "2",
            "--seed",
            "4",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "sweep_nodes.csv")
    assert len(rows) == 3 * 3
    assert sorted({int(r["sweep_value"]) for r in rows}) == [1, 2, 3]


def test_sweep_rejects_zero_trials(tmp_path):
    code = cli.main(["sweep-time", "--trials", "0", "--out-dir", str(tmp_path)])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["sweep-time", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_range_exits_2(tmp_path):
    code = cli.main(
        ["sweep-time", "--trials", "1", "--steps", "x..y", "--out-dir", str(tmp_path)]
    )
    assert code == 2


def test_mode_subset_flag(tmp_path):
    code = cli.main(
        [
            "sweep-time",
            "--trials",
            "2",
            "--steps",
            "1..2",
            "--agents",
            "2",
            "--anchors",
            "2",
            "--modes",
            "joint",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "sweep_time.csv")
    assert {r["mode"] for r in rows} == {"joint"}


def test_unknown_mode_exits_2(tmp_path):
    code = cli.main(
        ["sweep-time", "--trials", "1", "--modes", "bogus", "--out-dir", str(tmp_path)]
    )
    assert code == 2


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    from navlim.simkit import SweepNumericalError

    def boom(*args, **kwargs):
        raise SweepNumericalError("synthetic")

    monkeypatch.setattr(cli.simkit, "sweep_time", boom)
    code = cli.main(
        ["sweep-time", "--trials", "1", "--steps", "1..2", "--out-dir", str(tmp_path)]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_env_seed_default_and_flag_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("NAVLIM_SEED", "21")
    args = ["sweep-time", "--trials", "2", "--steps", "1..2", "--agents", "2", "--anchors", "2"]
    assert cli.main(args + ["--out-dir", str(tmp_path / "env")]) == 0
    assert cli.main(args + ["--seed", "21", "--out-dir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "env/sweep_time.csv").read_bytes() == (
        tmp_path / "flag/sweep_time.csv"
    ).read_bytes()
    assert cli.main(args + ["--seed", "22", "--out-dir", str(tmp_path / "other")]) == 0
    assert (tmp_path / "env/sweep_time.csv").read_bytes() != (
        tmp_path / "other/sweep_time.csv"
    ).read_bytes()


def test_env_seed_not_an_integer_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NAVLIM_SEED", "abc")
    args = ["sweep-time", "--trials", "2", "--steps", "1..2", "--agents", "2", "--anchors", "2"]
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "NAVLIM_SEED" in err and "'abc'" in err
    assert not (tmp_path / "sweep_time.csv").exists()
    assert cli.main(args + ["--seed", "21", "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (["sweep-time", "--trials", "2", "--steps", "1..2", "--agents", "2", "--seed", "-1"], None),
        (["sweep-time", "--trials", "2", "--steps", "1..2", "--agents", "2"], "-3"),
        (["sweep-nodes", "--trials", "2", "--steps", "2", "--agents", "2..3", "--seed", "-1"], None),
        (["verify", "--cases", "2", "--seed", "-1"], None),
        (["verify", "--cases", "2"], "-3"),
    ],
)
def test_negative_seed_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, env_seed):
    if env_seed is not None:
        monkeypatch.setenv("NAVLIM_SEED", env_seed)
    out = tmp_path / "out"
    if argv[0] != "verify":
        argv = argv + ["--out-dir", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seed" in captured.err.lower()
    assert not out.exists()


def test_svg_emission_leaves_csv_identical(tmp_path):
    args = [
        "sweep-time",
        "--trials",
        "2",
        "--steps",
        "1..3",
        "--agents",
        "2",
        "--anchors",
        "2",
        "--seed",
        "5",
    ]
    assert cli.main(args + ["--out-dir", str(tmp_path / "csv"), "--emit", "csv"]) == 0
    assert cli.main(args + ["--out-dir", str(tmp_path / "both"), "--emit", "both"]) == 0
    assert (tmp_path / "csv/sweep_time.csv").read_bytes() == (
        tmp_path / "both/sweep_time.csv"
    ).read_bytes()
    svg = (tmp_path / "both/sweep_time.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize(
    "extra, series",
    [
        (["--steps", "5", "--agents", "2", "--anchors", "2"], 3),  # one x value
        (["--steps", "5", "--agents", "2", "--anchors", "2", "--modes", "joint"], 1),  # flat
        (["--steps", "1..3", "--agents", "1", "--anchors", "1"], 2),  # spatial_only all inf
    ],
)
def test_svg_of_a_degenerate_sweep_is_well_formed(tmp_path, extra, series):
    args = ["sweep-time", "--trials", "3", "--seed", "2", "--emit", "svg"]
    assert cli.main(args + extra + ["--out-dir", str(tmp_path)]) == 0
    root = ElementTree.parse(tmp_path / "sweep_time.svg").getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    assert len(lines) == series
    for line in lines:
        coords = [float(v) for point in line.get("points").split() for v in point.split(",")]
        assert all(0.0 <= v <= 640.0 for v in coords)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: with no ranging the audit's recursion and dense "
    "marginalization disagree on which bounds are +inf (exit 3 at horizon 3)",
)
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_a_sweep_without_ranging_reports_every_bound_unbounded(tmp_path, seed):
    args = ["sweep-time", "--trials", "3", "--steps", "1..4", "--agents", "3"]
    args += ["--range-intensity", "0", "--seed", str(seed), "--out-dir", str(tmp_path)]
    assert cli.main(args) == 0
    rows = read_csv(tmp_path / "sweep_time.csv")
    assert len(rows) == 12 and all(r["mean_speb_m2"] == "inf" for r in rows)


# ---------------------------------------------------------------------------
# verify


def test_verify_list(capsys):
    assert cli.main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "carry-over-recursion",
        "weighted-sum-split",
        "axes-coupling-split",
        "anchor-equivalence",
        "cross-time-banding",
    ):
        assert name in out


def test_verify_passes(capsys):
    assert cli.main(["verify", "--seed", "42", "--cases", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_injected_failure_named(capsys, monkeypatch):
    identities = [
        (name, func, -1.0 if name == "weighted-sum-split" else tol, divisor)
        for name, func, tol, divisor in cli._IDENTITIES
    ]
    monkeypatch.setattr(cli, "_IDENTITIES", identities)
    code = cli.main(["verify", "--seed", "42", "--cases", "40"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL weighted-sum-split (seed=42)" in out


# ---------------------------------------------------------------------------
# ellipse


def test_ellipse_rows(tmp_path, demo_scenario):
    code = cli.main(
        ["ellipse", "--scenario", str(demo_scenario), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    rows = read_csv(tmp_path / "ellipses.csv")
    assert len(rows) == 2 * 2 * 2  # agents x steps x stages
    stages = {r["stage"] for r in rows}
    assert stages == {"carry_over", "after_spatial"}
    # step 0 carry-over is empty information: degenerate
    first = [r for r in rows if r["stage"] == "carry_over" and r["step"] == "0"]
    assert all(r["degenerate"] == "true" for r in first)
    after = [r for r in rows if r["stage"] == "after_spatial"]
    assert all(r["degenerate"] == "false" for r in after)
    assert all(
        float(r["semi_major_m_inv"]) >= float(r["semi_minor_m_inv"]) for r in rows
    )


def test_ellipse_isotropic_circle(tmp_path):
    # Orthogonal anchors make the step-0 information isotropic; with an
    # isotropic velocity model the carried information stays a circle.
    spec = {
        "area": [12, 12],
        "anchors": [[10.0, 5.0], [5.0, 10.0]],
        "agents": [[[5.0, 5.0], [6.0, 5.0]]],
        "T": 2,
        "intensities": {"lambda_kk": 5, "nu_kk": 5, "xi_kk": 0, "lambda_kj": 5},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "ellipses.csv")
    carry = [r for r in rows if r["stage"] == "carry_over" and r["step"] == "1"][0]
    assert carry["degenerate"] == "false"
    assert float(carry["semi_major_m_inv"]) == pytest.approx(
        float(carry["semi_minor_m_inv"]), rel=1e-9
    )


def test_ellipse_rank1_degenerate_flag(tmp_path):
    spec = {
        "area": [10, 10],
        "anchors": [[0.0, 0.0]],
        "agents": [[[5.0, 0.0]]],
        "T": 1,
        "intensities": {"lambda_kk": 0, "nu_kk": 0, "xi_kk": 0, "lambda_kj": 5},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "ellipses.csv")
    after = [r for r in rows if r["stage"] == "after_spatial"][0]
    assert after["degenerate"] == "true"
    assert float(after["semi_major_m_inv"]) == pytest.approx(math.sqrt(5.0), rel=1e-9)
    assert float(after["semi_minor_m_inv"]) == 0.0


def test_ellipse_svg(tmp_path, demo_scenario):
    code = cli.main(
        [
            "ellipse",
            "--scenario",
            str(demo_scenario),
            "--out-dir",
            str(tmp_path),
            "--emit",
            "both",
        ]
    )
    assert code == 0
    svg = (tmp_path / "ellipses.svg").read_text()
    assert "<ellipse" in svg


@pytest.mark.parametrize("emit", ["svg", "both"])
def test_ellipse_of_a_scenario_without_nodes_draws_an_empty_figure(tmp_path, emit):
    spec = {
        "area": [20, 20],
        "anchors": [],
        "agents": 0,
        "T": 3,
        "intensities": {"lambda_kk": 5, "nu_kk": 5, "xi_kk": 0, "lambda_kj": 5},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(out), "--emit", emit]) == 0
    assert read_csv(out / "ellipses.csv") == []
    root = ElementTree.parse(out / "ellipses.svg").getroot()
    assert [child.tag for child in root] == ["{http://www.w3.org/2000/svg}rect"]


# Scenario files whose `ellipse` outputs are pinned by sha256: a full
# network with velocity-axis coupling, a radius graph that isolates agent 1
# at steps 3, 4 and 7, and a network without anchors.
ELLIPSE_SPECS = {
    "full_coupled": {
        "area": [30, 20],
        "anchors": [[2.0, 2.0], [27.0, 4.0], [15.0, 18.0]],
        "agents": 4,
        "T": 6,
        "intensities": {"lambda_kk": 5, "nu_kk": 2, "xi_kk": 1.5, "lambda_kj": 4},
        "step_cov": [[1.5, 0.3], [0.3, 0.8]],
        "seed": 5,
    },
    "radius_isolating": {
        "area": [30, 30],
        "anchors": [[5.0, 5.0], [25.0, 25.0], [5.0, 25.0]],
        "agents": 5,
        "T": 8,
        "intensities": {"lambda_kk": 5, "nu_kk": 5, "xi_kk": 0, "lambda_kj": 5},
        "connectivity": {"radius": 12},
        "seed": 4,
    },
    "no_anchor": {
        "area": [20, 20],
        "anchors": [],
        "agents": 4,
        "T": 5,
        "intensities": {"lambda_kk": 3, "nu_kk": 1, "xi_kk": 0.5, "lambda_kj": 6},
        "seed": 9,
    },
}
ELLIPSE_DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "ellipse_digests.json")


def test_the_radius_ellipse_scenario_isolates_one_agent_at_some_steps(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(ELLIPSE_SPECS["radius_isolating"]))
    scenario = cli.load_scenario(str(path))
    ranged = {(n, node) for n, step in enumerate(scenario.pairs) for pair in step for node in pair}
    isolated = [(n, k) for n in range(8) for k in range(5) if (n, k) not in ranged]
    assert isolated == [(3, 1), (4, 1), (7, 1)]


@pytest.mark.parametrize("name", sorted(ELLIPSE_SPECS))
def test_ellipse_outputs_match_their_recorded_digests(tmp_path, capsys, name):
    with open(ELLIPSE_DIGESTS_PATH, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(ELLIPSE_SPECS[name]))
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path), "--emit", "both"]) == 0
    got = {
        stem: hashlib.sha256((tmp_path / stem).read_bytes()).hexdigest()
        for stem in ("ellipses.csv", "ellipses.svg")
    }
    assert got == want


def test_scenario_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"area": [10, 10], "bogus": 1}))
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 2


def test_scenario_unknown_intensity_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "area": [10, 10],
                "anchors": [],
                "agents": 1,
                "T": 1,
                "intensities": {"lambda_kk": 1, "nu_kk": 1, "xi_kk": 0, "lambda_kj": 1, "x": 2},
            }
        )
    )
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 2


def test_scenario_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 2


def test_scenario_missing_file(tmp_path):
    assert (
        cli.main(["ellipse", "--scenario", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        == 2
    )


@pytest.mark.parametrize(
    "patch",
    [
        {"agents": [[[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]]]},  # ragged trajectories
        {"anchors": [[1.0, "x"]]},
        {"seed": "abc"},
        {"intensities": {"lambda_kk": 1, "nu_kk": 1, "xi_kk": 5, "lambda_kj": 1}},  # not PSD
        {"step_cov": [[1.0, 0.0], [0.0, -1.0]]},
        {"step_cov": [[1.0, 0.9], [0.0, 1.0]]},  # asymmetric
        {"step_cov": math.nan},
        {"step_cov": None},
        {"area": [10, "a"]},
        {"area": [1e400, 10]},
        {"area": 10},
        {"connectivity": {"radius": "abc"}},
        {"connectivity": {"radius": None}},
        {"connectivity": {"radius": [1]}},
        {"connectivity": {"radius": -1}},
        {"connectivity": {"radius": 0}},
        {"connectivity": {"radius": 1e400}},
        {"agents": [[[1e400, 0.0]]]},
        {"anchors": [[math.inf, 1.0]]},
        {"intensities": {"lambda_kk": None, "nu_kk": 1, "xi_kk": 0, "lambda_kj": 1}},
        {"intensities": {"lambda_kk": 1, "nu_kk": 1, "xi_kk": 0, "lambda_kj": "x"}},
        {"intensities": 5},
        {"seed": -1},
        {"agents": True},
        {"T": True},
        {"intensities": {"lambda_kk": 1, "nu_kk": 1, "xi_kk": 0}},
        {"anchors": [1, 2]},
        {"connectivity": "partial"},
    ],
)
def test_scenario_bad_values_exit_2(tmp_path, capsys, patch):
    spec = {
        "area": [10, 10],
        "anchors": [[1.0, 1.0]],
        "agents": 1,
        "T": 1,
        "intensities": {"lambda_kk": 1, "nu_kk": 1, "xi_kk": 0, "lambda_kj": 1},
    }
    spec.update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ([], "scenario file must hold a JSON object"),
        (
            {"area": [10, 10], "anchors": [], "agents": 1, "intensities": {}},
            "scenario key 'T' is required",
        ),
    ],
)
def test_scenario_not_an_object_or_without_t_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag",
    ["--area", "--radius", "--step-cov", "--range-intensity", "--vel-along", "--vel-across", "--vel-couple"],
)
def test_non_finite_config_values_exit_2(tmp_path, capsys, flag, value):
    values = [value, "10"] if flag == "--area" else [value]
    argv = ["sweep-time", "--trials", "2", "--steps", "1..2", "--agents", "2", flag, *values]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_ellipse_coincident_nodes_exit_2(tmp_path, capsys):
    spec = {
        "area": [10, 10],
        "anchors": [[1.0, 1.0]],
        "agents": [[[1.0, 1.0], [2.0, 2.0]]],
        "T": 2,
        "intensities": {"lambda_kk": 1, "nu_kk": 1, "xi_kk": 0, "lambda_kj": 1},
    }
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "coincide" in err
    assert not (tmp_path / "ellipses.csv").exists()


def out_dir_argv(command, demo_scenario):
    if command == "sweep-time":
        return ["sweep-time", "--trials", "2", "--steps", "1..2", "--agents", "2"]
    if command == "sweep-nodes":
        return ["sweep-nodes", "--trials", "2", "--agents", "1..2", "--steps", "2"]
    return ["ellipse", "--scenario", str(demo_scenario)]


@pytest.mark.parametrize("command", ["sweep-time", "sweep-nodes", "ellipse"])
def test_unusable_out_dir_exits_2_with_one_line(tmp_path, capsys, demo_scenario, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "sub"
    argv = out_dir_argv(command, demo_scenario)
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out_dir) in err


@pytest.mark.parametrize("command", ["sweep-time", "sweep-nodes", "ellipse"])
def test_unwritable_output_file_exits_2_with_one_line(tmp_path, capsys, demo_scenario, command):
    out_dir = tmp_path / "out"
    stem = "ellipses" if command == "ellipse" else command.replace("-", "_")
    (out_dir / f"{stem}.csv").mkdir(parents=True)  # the CSV's name is taken by a directory
    argv = out_dir_argv(command, demo_scenario)
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out_dir) in err
    assert sorted(p.name for p in out_dir.iterdir()) == [f"{stem}.csv"]  # no .tmp left


@pytest.mark.parametrize("command", ["sweep-time", "sweep-nodes"])
def test_unusable_out_dir_fails_before_the_sweep_runs(tmp_path, capsys, monkeypatch, command):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before --out-dir was checked")

    monkeypatch.setattr(simkit, "sweep_time", no_sweep)
    monkeypatch.setattr(simkit, "sweep_nodes", no_sweep)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = out_dir_argv(command, None) + ["--out-dir", str(blocker / "sub")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unusable --out-dir ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-time", "--trials", "5", "--agents", "3", "--anchors", "1", "--steps", "1..4", "--seed", "1"],
        ["sweep-time", "--trials", "5", "--agents", "3", "--anchors", "0", "--steps", "1..4", "--seed", "1"],
        ["sweep-nodes", "--agents", "2..3", "--anchors", "1", "--steps", "3"],
    ],
)
def test_sweep_audit_accepts_agreeing_infinite_bounds(tmp_path, capsys, argv):
    # With one anchor the rotation about it is unobservable at horizon 1, so
    # the recursion and the dense reference both report +inf there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_integer_agents_draw_the_inline_random_walk(tmp_path):
    spec = {
        "area": [25, 15],
        "anchors": [[2.0, 2.0], [20.0, 3.0], [12.0, 14.0]],
        "agents": 3,
        "T": 4,
        "intensities": {"lambda_kk": 5, "nu_kk": 2, "xi_kk": 1, "lambda_kj": 4},
        "step_cov": [[1.5, 0.3], [0.3, 0.8]],
        "seed": 11,
    }
    walks = inline_random_walks(11, spec["area"], 3, 4, np.array(spec["step_cov"]))
    drawn = tmp_path / "drawn.json"
    drawn.write_text(json.dumps(spec))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(dict(spec, agents=walks.tolist())))
    assert cli.load_scenario(str(drawn)).geometry.paths[:3].tobytes() == walks.tobytes()
    for path in (drawn, explicit):
        out = tmp_path / path.stem
        assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(out)]) == 0
    assert (tmp_path / "drawn" / "ellipses.csv").read_bytes() == (
        tmp_path / "explicit" / "ellipses.csv"
    ).read_bytes()


def test_audit_failure_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    real = simkit._draw_paths

    def coincident_audit(cfg, entropy=()):
        paths = real(cfg, entropy)
        if entropy == (simkit._AUDIT_ENTROPY,):
            paths[0, 1] = paths[cfg.num_agents, 1]  # agent 0 on the first anchor
        return paths

    monkeypatch.setattr(simkit, "_draw_paths", coincident_audit)
    argv = ["sweep-time", "--trials", "3", "--agents", "2", "--steps", "1..3", "--seed", "5"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "seed=5" in err and f"entropy={simkit._AUDIT_ENTROPY:#x}" in err
    assert "coincide" in err
    assert not (tmp_path / "sweep_time.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_ellipse_whose_solve_fails_exits_3_with_one_line(tmp_path, capsys):
    # the ranging blocks overflow to inf, and the eigensolver gives up
    spec = {
        "area": [20, 20],
        "anchors": [[2.0, 2.0], [18.0, 3.0], [10.0, 18.0]],
        "agents": 3,
        "T": 3,
        "intensities": {"lambda_kk": 5, "nu_kk": 5, "xi_kk": 0, "lambda_kj": 1e308},
        "seed": 3,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.main(["ellipse", "--scenario", str(path), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not (out / "ellipses.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_ellipse_exits_3_with_one_line(tmp_path, capsys, demo_scenario):
    # the ranging blocks overflow to inf, and the eigensolver still converges
    # on the NaN it makes of them: no row may be written
    spec = json.loads(demo_scenario.read_text())
    spec["intensities"]["lambda_kj"] = 1e308
    demo_scenario.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.main(["ellipse", "--scenario", str(demo_scenario), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: non-finite information at step 0\n"
    assert not (out / "ellipses.csv").exists()


def test_a_leaking_ellipse_reduction_exits_3_with_one_line(tmp_path, capsys, monkeypatch, demo_scenario):
    def leaking(total):
        raise SingularBlockError("singular nuisance block in eliminate_block")

    monkeypatch.setattr(navinfo, "individual_efims", leaking)
    out = tmp_path / "out"
    assert cli.main(["ellipse", "--scenario", str(demo_scenario), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: singular nuisance block in eliminate_block\n"
    assert not (out / "ellipses.csv").exists()


@pytest.mark.parametrize("seed", [7, 1112])
@pytest.mark.parametrize("workload", ["sweep-time", "sweep-nodes"])
def test_benchmark_sweeps_match_their_recorded_digests(tmp_path, capsys, workload, seed):
    # the benchmark's own sweep shapes; the digests file is only read
    from perfbench import workloads

    sweep = workloads.WORKLOADS[workload]
    recorded = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))[workload][str(seed)]
    assert sweep.digest_argv(seed) == recorded["argv"]
    assert cli.main(sweep.argv(seed, str(tmp_path))) == 0
    data = (tmp_path / f"{sweep.subcommand.replace('-', '_')}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == recorded["sha256"]


@pytest.mark.parametrize("command", ["sweep-time", "sweep-nodes"])
def test_zero_trials_exit_2_before_the_out_dir(tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    assert cli.main([command, "--trials", "0", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: trials must be >= 1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-time", "--steps", "5..3"], "empty range '5..3'"),
        (["sweep-time", "--steps", "0..3"], "range '0..3' must start at 1 or more"),
        (["sweep-nodes", "--agents", "0..3"], "range '0..3' must start at 1 or more"),
        (["sweep-time", "--modes", "joint,joint"], "mode 'joint' is repeated"),
        (["sweep-nodes", "--modes", "spatial_only, joint,spatial_only"], "mode 'spatial_only' is repeated"),
        (["sweep-time", "--range-intensity", "-1"], "intensities must be >= 0"),
    ],
)
def test_a_bad_sweep_argument_exits_2_before_the_out_dir(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# a count beyond int64: no array of node paths can hold it
HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-time", "--steps", "1..2", "--agents", HUGE],
        ["sweep-nodes", "--steps", HUGE, "--agents", "1..2"],
        ["sweep-time", "--steps", f"1..{HUGE}"],
        ["sweep-nodes", "--agents", f"1..{HUGE}"],
        ["sweep-time", "--steps", "1..2", "--anchors", HUGE],
    ],
)
def test_counts_no_array_can_hold_exit_2_before_anything_is_built(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert cli.main(argv + ["--trials", "2", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too many for one array of paths" in err
    assert not out_dir.exists()


def test_verify_zero_cases_exits_2(capsys):
    assert cli.main(["verify", "--cases", "0"]) == 2
    assert capsys.readouterr().err == "error: --cases must be >= 1\n"


def test_a_single_step_count_gives_one_row_per_mode(tmp_path):
    argv = ["sweep-time", "--trials", "2", "--steps", "7", "--agents", "2", "--anchors", "2"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_time.csv")
    assert [(r["mode"], r["sweep_value"]) for r in rows] == [
        (mode.value, "7") for mode in simkit.ALL_MODES
    ]


def test_a_lost_sweep_worker_exits_4_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent, real = os.getpid(), simkit._chunk_means

    def killed_in_a_worker(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(simkit, "_chunk_means", killed_in_a_worker)
    argv = ["sweep-nodes", "--trials", "4", "--agents", "1..3", "--steps", "3"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: sweep worker ") and err.count("\n") == 1
    assert "lost (signal 9)" in err
    assert not (tmp_path / "sweep_nodes.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-time", "--trials", "abc"],
        ["sweep-nodes", "--trials", "2.5"],
        ["sweep-time", "--anchors", "four"],
        ["sweep-nodes", "--steps", "x"],
        ["sweep-time", "--area", "20"],
        ["sweep-nodes", "--bogus"],
    ],
)
def test_a_usage_error_exits_2_with_one_line_before_the_out_dir(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "for usage" in err and argv[1] in err
    assert not out_dir.exists()


def test_help_still_prints_usage(capsys):
    assert cli.main(["sweep-time", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: navlim sweep-time") and "--trials" in out
