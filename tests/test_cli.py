import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divopt
from divopt import hjb2d, solver1d, solver2d
from divopt import simulate as sim_mod
from divopt.cli import (
    ConfigError,
    _fan_out,
    _read_value_npz,
    build_grid,
    build_model,
    load_config,
    main,
)

from oracles import read_value_csv

TINY_CFG = """\
# tiny solve for exercising the command surface
c1 = 2
c2 = 1
b1 = 0.5
b2 = 0.5
lambda = 1
q = 0.05
claim.kind = exponential
claim.rate = 0.6
delta = 0.1
x1_max = 9
x2_max = 9
paths = 4000
seed = 7
delta_1d = 0.01
x_max_1d = 25
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return p


class TestConfig:
    def test_parse_roundtrip(self, cfg_file):
        cfg, text = load_config(cfg_file)
        assert text == TINY_CFG
        assert cfg["claim.kind"] == "exponential"
        params, law = build_model(cfg)
        grid = build_grid(cfg, params)
        assert grid.n_max == 45

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/xyz.cfg")

    def test_bad_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("c1 2\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_proportions_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CFG.replace("b1 = 0.5", "b1 = 0.7"))
        assert main(["solve2d", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_missing_claim_rate_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CFG.replace("claim.rate = 0.6\n", ""))
        assert main(["solve1d", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command,key", [
        ("solve2d", "x1_max"),
        ("simulate", "x1_max"), ("simulate", "paths"), ("simulate", "seed"),
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, command, key):
        # an infinite grid, path count or seed cannot be built
        p = tmp_path / "inf.cfg"
        p.write_text(TINY_CFG + f"{key} = inf\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1

    def test_legacy_tol_key_is_ignored(self, run_dir, tmp_path):
        # a config that still sets tol (perfbench/make_refs.py writes
        # tol = 1e-13) solves as the same config without it: the key is
        # read by nothing, like any other unknown key
        written = ("value.csv", "value.npz", "policy.csv", "regions.dat", "summary.json")
        for value in ("1e-13", "inf"):
            cfg = tmp_path / f"tol_{value}.cfg"
            cfg.write_text(TINY_CFG + f"tol = {value}\n")
            out = tmp_path / f"out_{value}"
            assert main(["solve2d", "--config", str(cfg), "--out", str(out)]) == 0
            for name in written:
                assert (out / name).read_bytes() == (run_dir[0] / name).read_bytes(), name

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "paths", "2.5"), ("simulate", "paths", "0"), ("simulate", "seed", "2.7"),
        ("validate", "paths", "12.5"), ("validate", "paths", "-4"), ("validate", "seed", "2.7"),
        ("validate", "seed", "-1"), ("simulate", "paths", "1"),
        ("simulate", "seed", "9007199254740993.5"), ("simulate", "paths", "1e400"),
    ])
    def test_count_must_be_integer_exit_2(self, tmp_path, capsys, command, key, value):
        # a fractional seed would otherwise run another seed without notice,
        # and one path has no standard error
        p = tmp_path / "frac.cfg"
        p.write_text(TINY_CFG + f"{key} = {value}\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1

    def test_count_is_read_exactly(self, run_dir, tmp_path):
        # 2**53 + 1 has no float of its own: read through one, the seed
        # would run and be recorded as 2**53.  An exponent that names an
        # integer still counts.
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        cfg = tmp_path / "exact.cfg"
        cfg.write_text(TINY_CFG + "seed = 9007199254740993\npaths = 5e2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        sim = json.loads((out / "sim.json").read_text())
        assert sim["seed"] == 9007199254740993 and sim["paths"] == 500


class TestSeed:
    def test_top_config_seed_runs(self, run_dir, tmp_path):
        # the top seed still spawns the per-point streams and their runs' child 0
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        cfg = tmp_path / "top.cfg"
        cfg.write_text(TINY_CFG + f"seed = {2**128 - 1}\npaths = 500\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "sim.json").read_text())["seed"] == 2**128 - 1
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0

    def test_validate_point_runs_as_alone(self, run_dir, tmp_path, monkeypatch):
        # validate gives point i child i of the seed's spawn(4), TakeAndRun
        # child 3; each result is the one its child gives run by itself,
        # whatever the other points draw.  One CPU, one share: the spy
        # records in this process only
        _cpus(monkeypatch, 1)
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        real = sim_mod.simulate_policy
        calls = []

        def spy(params, law, strat, x0, n_paths, seed):
            res = real(params, law, strat, x0, n_paths, seed)
            calls.append((params, law, strat, x0, n_paths, res))
            return res

        monkeypatch.setattr(sim_mod, "simulate_policy", spy)
        assert main(["validate", "--config", str(run_dir[1]), "--out", str(out)]) == 0
        assert [c[-1].spawn_key for c in calls] == [(0,), (1,), (2,), (3,)]
        assert isinstance(calls[-1][2], sim_mod.TakeAndRun)
        for i, (params, law, strat, x0, n_paths, res) in enumerate(calls):
            alone = real(params, law, strat, x0, n_paths, np.random.SeedSequence(7).spawn(i + 1)[i])
            assert alone == res and res.seed == 7

    def test_points_draw_from_distinct_streams(self, run_dir, tmp_path, monkeypatch):
        # the first-round inter-arrival times of every point's run, drawn as
        # the policy table's runner draws them, all differ (one share, so
        # the recording stays in this process)
        _cpus(monkeypatch, 1)
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        first = []

        class Recording(sim_mod.PolicyTable):
            def runner(self, params, law, x0):
                run = super().runner(params, law, x0)

                def recorded(n_paths, seed, rel):
                    rng = np.random.Generator(np.random.Philox(seed))
                    first.append(rng.exponential(1.0 / params.lam, n_paths)[:8].tolist())
                    return run(n_paths, seed, rel)

                return recorded

        monkeypatch.setattr(sim_mod, "PolicyTable", Recording)
        assert main(["simulate", "--config", str(run_dir[1]), "--out", str(out)]) == 0
        assert len(first) == 5  # one run per point
        assert len({draws[0] for draws in first}) == 5

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_flag_out_of_range_exit_2(self, run_dir, tmp_path, capsys, command, seed):
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        assert main([command, "--config", str(run_dir[1]), "--out", str(out),
                     "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and len(err.strip().splitlines()) == 1


class TestCorrelationPath:
    # a dense kernel takes the pruned FFT, a constant claim size (example
    # 3's) the direct cell sums, in both solvers
    @pytest.mark.parametrize("claim, path, cells_2d, fshape_2d, cells_1d, fshape_1d", [
        ("claim.kind = exponential\nclaim.rate = 0.6", "fft", 136, [96, 189], 2501, [5040]),
        ("claim.kind = deterministic\nclaim.atom = 2.4166666666666665", "direct", 3, None,
         2, None),
    ])
    def test_reports_record_the_path(self, tmp_path, capsys, claim, path, cells_2d, fshape_2d,
                                     cells_1d, fshape_1d):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CFG.replace("claim.kind = exponential\nclaim.rate = 0.6", claim))
        out = tmp_path / "o"
        assert main(["solve2d", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("solve2d: 2 levels, ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["correlation"], manifest["kernel_cells"], manifest["fshape"]) == (
            path, cells_2d, fshape_2d)
        assert manifest["residual_max"] < 1e-10
        assert main(["solve1d", "--config", str(cfg), "--out", str(out)]) == 0
        for report in (json.loads((out / "manifest.json").read_text()),
                       json.loads((out / "band_wbar.json").read_text())):
            assert (report["correlation"], report["kernel_cells"], report["fshape"]) == (
                path, cells_1d, fshape_1d)
            assert report["residual_max"] < 1e-10


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    rc = main(["solve2d", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return out, cfg


@pytest.fixture(scope="module")
def validated(run_dir, tmp_path_factory):
    # validate reads value.npz, and no other artifact
    out = tmp_path_factory.mktemp("validate")
    shutil.copy(run_dir[0] / "value.npz", out)
    rc = main(["validate", "--config", str(run_dir[1]), "--out", str(out)])
    return rc, (out / "validate.json").read_text()


class TestSolve2dCommand:

    def test_artifacts_written(self, run_dir):
        out, _ = run_dir
        for name in ("value.csv", "value.npz", "policy.csv", "summary.json", "regions.dat",
                     "regions.gp", "manifest.json"):
            assert (out / name).is_file()

    def test_manifest_echoes_config_byte_identical(self, run_dir):
        out, cfg = run_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_echo"] == cfg.read_text()
        assert manifest["iterations"] > 0
        assert manifest["rng"] == "philox4x64/seedsequence-spawn"

    def test_manifest_phases(self, run_dir):
        out, _ = run_dir
        manifest = json.loads((out / "manifest.json").read_text())
        phases = manifest["phases"]
        assert set(phases) == {"claim_field", "sweeps", "evaluation", "policy"}
        assert all(t > 0 for t in phases.values())
        assert sum(phases.values()) <= manifest["wall_time"]

    def test_summary_fields(self, run_dir):
        out, _ = run_dir
        summary = json.loads((out / "summary.json").read_text())
        # the policy-iteration finish, in both reports, which keep none of
        # the retired value-iteration fields
        manifest = json.loads((out / "manifest.json").read_text())
        for report in (summary, manifest):
            assert not {"tol_effective", "min_increment", "converged"} & set(report)
            assert report["policies"] >= 1 and report["gmres_matvecs"] >= 1
            assert report["residual_max"] < 1e-10 and report["gmres_residual"] < 1e-10
        assert isinstance(summary["a0_points"], list)

    def test_levels_and_error_estimate(self, run_dir):
        # the 46x91 grid coarsens once, to 23x46 (twice the step)
        out, _ = run_dir
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        levels = manifest["levels"]
        assert [lv["shape"] for lv in levels] == [[23, 46], [46, 91]]
        for lv in levels:
            assert set(lv) == {"shape", "sweeps", "policies", "matvecs", "eval_box", "seconds"}
            assert lv["sweeps"] >= 1 and lv["policies"] >= 1 and lv["matvecs"] >= 1
            assert all(1 <= b <= s for b, s in zip(lv["eval_box"], lv["shape"]))
        assert sum(lv["seconds"] for lv in levels) <= manifest["wall_time"]
        for key, per_level in (("iterations", "sweeps"), ("policies", "policies"),
                               ("gmres_matvecs", "matvecs")):
            assert manifest[key] == summary[key] == sum(lv[per_level] for lv in levels)
        # V_delta - V_2delta at the shared nodes: the values rise under refinement
        assert summary["disc_error_est"] == manifest["disc_error_est"]
        assert 0.0 < summary["disc_error_est"] < 1.0

    def test_simulate_command(self, run_dir):
        out, cfg = run_dir
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        sim = json.loads((out / "sim.json").read_text())
        assert len(sim["results"]) == 5
        assert all(abs(r["z"]) <= 4.0 for r in sim["results"])
        for row in sim["results"]:
            assert row["rounds"] > 0
            assert row["ruined"] + row["horizon_cut"] == sim["paths"]
            assert row["wall_s"] > 0 and 0 < row["tail_bound"] < 0.1 * row["stderr"]
        # point i runs on child i of the seed
        assert [row["spawn_key"] for row in sim["results"]] == [[i] for i in range(5)]

    def test_simulate_reads_only_value_npz(self, run_dir, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        cfg = tmp_path / "few.cfg"
        cfg.write_text(TINY_CFG.replace("paths = 4000", "paths = 500"))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sim.json", "value.npz"]

    def test_value_npz_is_value_csv(self, run_dir):
        # the binary table the reading commands load holds value.csv's
        # values and node coordinates bit for bit
        out, _ = run_dir
        table = np.loadtxt(out / "value.csv", delimiter=",", skiprows=1)
        with np.load(out / "value.npz", allow_pickle=False) as npz:
            assert set(npz.files) == {"v", "x1", "x2"}
            v, x1, x2 = npz["v"], npz["x1"], npz["x2"]
        assert v.dtype == x1.dtype == x2.dtype == np.float64
        ns, ms = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
        assert np.array_equal(ns, np.repeat(np.arange(x1.size), x2.size))
        assert np.array_equal(ms, np.tile(np.arange(x2.size), x1.size))
        assert np.array_equal(table[:, 2], x1[ns]) and np.array_equal(table[:, 3], x2[ms])
        assert np.array_equal(table[:, 4], v.ravel())

    def test_greedy_policy_of_value_csv_is_policy_csv(self, run_dir):
        # simulate and validate recompute the policy that solve2d wrote
        out, cfg = run_dir
        cfg_map, _ = load_config(cfg)
        params, law = build_model(cfg_map)
        grid = build_grid(cfg_map, params)
        masks = {name: mask for mask, name in enumerate(solver2d.ARGMAX_NAMES)}
        lines = (out / "policy.csv").read_text().splitlines()
        assert lines[0] == "n,m,label,argmax"
        written = np.zeros(grid.shape, dtype=np.uint8)
        for line in lines[1:]:
            n, m, _, argmax = line.split(",")
            written[int(n), int(m)] = masks[argmax]
        eps_tie = json.loads((out / "manifest.json").read_text())["eps_tie"]
        v = read_value_csv(out / "value.csv", grid)
        for workers in (1, 2):  # accepted, no effect: the FFT runs on one thread
            hjb2d.set_fft_workers(workers)
            policy, _ = solver2d.greedy_policy(hjb2d.build_claim_kernel(params, law, grid), v)
            assert np.array_equal(policy.actions, written)
            assert policy.eps_tie == eps_tie

    def test_merger_compare_command(self, run_dir):
        out, cfg = run_dir
        rc = main(["merger-compare", "--config", str(cfg), "--out", str(out),
                   "--m-cost", "0"])
        assert rc == 0
        rows = (out / "merger_compare.csv").read_text().strip().splitlines()
        assert rows[0] == "x1,x2,merger_reduced,v2d_reduced"
        assert len(rows) == 6

    def test_validate_command_passes(self, validated):
        rc, text = validated
        report = json.loads(text)
        assert rc == 0, report
        assert report["pass"]
        # details are formatted from plain floats, not numpy reprs
        assert "np.float64" not in text

    def test_validate_numeric_fields(self, validated, run_dir):
        report = json.loads(validated[1])
        checks = {c["name"]: c for c in report["checks"]}
        numeric = {"residual", "lower_bound", "upper_bound", "increments", "d1_identity",
                   "reflection_suboptimal", "merger_dominance", "mc_policy_crosscheck",
                   "mc_take_and_run"}
        assert numeric <= set(checks)
        for name, c in checks.items():
            if name in numeric:
                assert isinstance(c["value"], float) and math.isfinite(c["value"])
                assert isinstance(c["bound"], float) and math.isfinite(c["bound"])
            else:
                assert "value" not in c and "bound" not in c
        assert checks["residual"]["value"] <= checks["residual"]["bound"]
        # the residual bound is RESIDUAL_REL * (1 + sup v), merger dominance ten of it
        with np.load(run_dir[0] / "value.npz", allow_pickle=False) as npz:
            top = 1.0 + float(npz["v"].max())
        assert checks["residual"]["bound"] == hjb2d.RESIDUAL_REL * top
        assert checks["merger_dominance"]["bound"] == -10 * checks["residual"]["bound"]
        assert "iterate_monotone" not in checks
        for name in ("lower_bound", "increments"):
            assert checks[name]["value"] >= checks[name]["bound"] == -1e-9
        assert checks["upper_bound"]["value"] <= checks["upper_bound"]["bound"] == 1e-9
        assert abs(checks["mc_take_and_run"]["value"]) <= checks["mc_take_and_run"]["bound"]

    @pytest.mark.parametrize("points,bad", [
        ("1;2", "1"), ("1:2;3:x", "3:x"), ("1:2:3", "1:2:3"), ("1:inf", "1:inf"),
        ("1:2;-1:2", "-1:2"), ("30:2", "30:2"), ("1:9.5", "1:9.5"),
    ])
    def test_bad_sim_points_exit_2(self, run_dir, tmp_path, capsys, points, bad):
        # points off the solved 9 x 9 grid as well as malformed ones
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir[0] / "value.npz", out)
        cfg = tmp_path / "points.cfg"
        cfg.write_text(TINY_CFG + f"sim.points = {points}\n")
        for command, artifact in (("simulate", "sim.json"),
                                  ("merger-compare", "merger_compare.csv")):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "sim.points" in err and repr(bad) in err
            assert len(err.strip().splitlines()) == 1
            assert not (out / artifact).exists()

    @pytest.mark.parametrize("command, artifact", [("simulate", "sim.json"),
                                                   ("merger-compare", "merger_compare.csv"),
                                                   ("validate", "validate.json")])
    def test_missing_artifacts_exit_2(self, tmp_path, cfg_file, capsys, command, artifact):
        out = tmp_path / "no"
        out.mkdir()
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"{command}: missing value.npz"]
        assert not (out / artifact).exists()

    def test_validate_after_solve1d_exit_2(self, tmp_path, cfg_file, capsys):
        # solve1d into the solve's directory overwrites its manifest, which
        # validate does not read: it passes on the 2D solve's value.npz
        out = tmp_path / "o"
        assert main(["solve2d", "--config", str(cfg_file), "--out", str(out)]) == 0
        solve2d = json.loads((out / "manifest.json").read_text())
        assert main(["solve1d", "--config", str(cfg_file), "--out", str(out),
                     "--kind", "merger"]) == 0
        solve1d = json.loads((out / "manifest.json").read_text())
        # one fixed_point finish reports both solves alike
        assert set(solve1d["phases"]) == set(solve2d["phases"])
        assert [list(lv) for lv in solve1d["levels"]] == [list(solve2d["levels"][0])] * len(
            solve1d["levels"])
        assert main(["validate", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert json.loads((out / "validate.json").read_text())["pass"]


class TestStartup:
    def test_commands_load_no_scipy_subpackage(self, cfg_file, tmp_path):
        # in a fresh interpreter: numpy's FFT and the region maps' own
        # labeller keep these subpackages, and their start-up time and
        # memory, off the path of every command
        code = """
import sys
from divopt.cli import main
for command in ("solve2d", "validate"):
    assert main([command, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0, command
heavy = ("scipy.fft", "scipy.ndimage", "scipy.special", "scipy.sparse")
loaded = [m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy)]
assert not loaded, loaded
"""
        src = str(Path(divopt.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code, str(cfg_file), str(tmp_path / "out")],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0, run.stderr


class TestSolve1dCommand:
    def test_wbar_and_merger_artifacts(self, tmp_path, cfg_file):
        out = tmp_path / "o1"
        assert main(["solve1d", "--config", str(cfg_file), "--out", str(out),
                     "--kind", "wbar"]) == 0
        band = json.loads((out / "band_wbar.json").read_text())
        assert band["intervals"][-1][2] == "B"
        # the claim field, the sweeps, the greedy steps and policy
        # evaluations, and the argmax sets of the final table, timed apart
        # as in the 2D solve
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["phases"]) == {"claim_field", "sweeps", "evaluation", "policy"}
        # policy iteration ends the solve at the grid fixed point, in both reports
        for report in (band, manifest):
            assert report["policies"] >= 1 and report["gmres_matvecs"] >= 1
            assert report["residual_max"] < 1e-10 and report["gmres_residual"] < 1e-10
            # 2501 nodes coarsen down to 20, each grid's n_max half the next's
            shapes = [[20], [40], [79], [157], [313], [626], [1251], [2501]]
            assert [lv["shape"] for lv in report["levels"]] == shapes
            assert report["policies"] == sum(lv["policies"] for lv in report["levels"])
            assert 0.0 < report["disc_error_est"] < 1.0
        assert all(t > 0 for t in manifest["phases"].values())
        assert sum(manifest["phases"].values()) <= manifest["wall_time"]
        assert main(["solve1d", "--config", str(cfg_file), "--out", str(out),
                     "--kind", "merger"]) == 0
        assert (out / "value1d_merger.csv").is_file()

    def test_delta_1d_without_delta(self, tmp_path):
        # delta only supplies delta_1d's default
        cfg = tmp_path / "no_delta.cfg"
        cfg.write_text(TINY_CFG.replace("delta = 0.1\n", ""))
        out = tmp_path / "o"
        assert main(["solve1d", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "band_wbar.json").is_file()

    def test_x_max_1d_without_x1_max(self, tmp_path):
        # x1_max only supplies x_max_1d's default, so a bad one is not read
        cfg = tmp_path / "inf_x1.cfg"
        cfg.write_text(TINY_CFG.replace("x1_max = 9", "x1_max = inf"))
        out = tmp_path / "o"
        assert main(["solve1d", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "band_wbar.json").is_file()

    def test_truncated_band_exit_3(self, tmp_path):
        cfg = tmp_path / "trunc.cfg"
        cfg.write_text(TINY_CFG.replace("x_max_1d = 25", "x_max_1d = 2"))
        assert main(["solve1d", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


class TestTruncated1dBands:
    def test_validate_and_merger_compare_exit_3(self, tmp_path, capsys):
        # example-1 parameters on a grid too small for the 1D bands, and no
        # x_max_1d: the 2D solve succeeds, the 1D solves inside validate and
        # merger-compare, truncated by the 2D grid, cannot
        cfg = tmp_path / "small.cfg"
        cfg.write_text(TINY_CFG.replace("x1_max = 9", "x1_max = 1.5")
                       .replace("x2_max = 9", "x2_max = 1.5").replace("x_max_1d = 25\n", ""))
        out = tmp_path / "o"
        assert main(["solve2d", "--config", str(cfg), "--out", str(out)]) == 0
        # a 9x16 grid has no coarser level, so no error estimate
        assert capsys.readouterr().out.startswith("solve2d: 1 levels, ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert [lv["shape"] for lv in manifest["levels"]] == [[9, 16]]
        assert manifest["disc_error_est"] is None
        assert json.loads((out / "summary.json").read_text())["disc_error_est"] is None
        for command in ("validate", "merger-compare"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"{command}: ") and len(err.strip().splitlines()) == 1
        assert not (out / "validate.json").exists()
        assert not (out / "merger_compare.csv").exists()

    def test_validate_and_merger_compare_read_the_1d_grid(self, tmp_path):
        # sym_gamma at x_max = 9 solves in 2D, but the merged company's band
        # ends near 20.5, past the default truncation 9 + 9 + 1: the
        # config's own delta_1d and x_max_1d fit both 1D problems, as in
        # solve1d.  wbar's band ends near 10.2, past the 2D grid, so the
        # truncated 2D value falls below the 1D one on the diagonal
        bundled = Path(divopt.__file__).parent / "configs" / "sym_gamma.cfg"
        cfg = tmp_path / "sym9.cfg"
        cfg.write_text(bundled.read_text() + "x1_max = 9\nx2_max = 9\npaths = 2000\n")
        out = tmp_path / "o"
        assert main(["solve2d", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["merger-compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads((out / "validate.json").read_text())["checks"]}
        assert [name for name, c in checks.items() if not c["pass"]] == ["symmetric_diagonal"]
        assert checks["merger_dominance"]["value"] > 0
        # without the keys, the 1D solves take their truncation from the 2D grid
        cfg.write_text(cfg.read_text().replace("x_max_1d = 40\n", ""))
        for command in ("validate", "merger-compare"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3


class TestNoPayEdge:
    def test_validate_passes_with_no_pay_nodes_on_the_edge(self, tmp_path):
        # x2_max = 4 cuts the no-pay band (top near x2 = 6.4): no-pay nodes
        # on the top edge drift along it, valued by the unit-slope extension,
        # and the Monte Carlo runner must follow that same strategy
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(TINY_CFG + "x2_max = 4\npaths = 5000\n")
        out = tmp_path / "o"
        assert main(["solve2d", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "policy.csv").read_text().splitlines()[1:]]
        assert any(m == "40" and label == "C" for _, m, label, _ in rows)
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads((out / "validate.json").read_text())["checks"]}
        assert checks["mc_policy_crosscheck"]["pass"]


class TestSolveErrorExit:
    def test_nonconvergence_exits_3_in_every_solving_command(self, run_dir, tmp_path,
                                                              monkeypatch, capsys):
        # the fixed-point loop, as both solvers look it up, hits its cap
        from divopt import hjb2d, solver1d, solver2d

        def capped(*args, **kwargs):
            raise hjb2d.NonConvergenceError(3, 0.5)

        monkeypatch.setattr(solver2d, "fixed_point", capped)
        monkeypatch.setattr(solver1d, "fixed_point", capped)
        out = tmp_path / "o"
        shutil.copytree(run_dir[0], out)
        capsys.readouterr()
        for command in ("solve2d", "solve1d", "validate", "merger-compare"):
            assert main([command, "--config", str(run_dir[1]), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"{command}: ") and len(err.strip().splitlines()) == 1

    def test_policy_value_below_the_iterate_exits_3(self, cfg_file, tmp_path, monkeypatch,
                                                     capsys):
        # a policy evaluation that comes out 1 low, once the level has
        # evaluated a policy, puts V^pi below the iterate pi is greedy at:
        # policy iteration stops there, in 2D and in 1D
        evaluate = hjb2d._evaluate

        def low(scheme, pref, v, out, counts):
            has_policy = counts["policies"] > 0
            residual = evaluate(scheme, pref, v, out, counts)
            if has_policy:
                out -= 1.0
            return residual

        monkeypatch.setattr(hjb2d, "_evaluate", low)
        capsys.readouterr()
        assert main(["solve2d", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and re.match(r"solve2d: policy iteration on the \d+x\d+-node grid: "
                                          r"a greedy policy's value fell", err[0]), err
        prob = solver1d.make_auxiliary_problem(*build_model(load_config(cfg_file)[0]), "wbar")
        with pytest.raises(hjb2d.NonConvergenceError, match=r"on the \d+-node grid: a greedy"):
            solver1d.solve_1d(prob, delta=0.01, x_max=20.0)


def _cpus(monkeypatch, n):
    """Let the commands see n CPUs, so they fan their jobs out to n shares
    (where os.fork exists)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _count_forks(monkeypatch):
    """The pids of the workers this process forks from now on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _copy_solve(run_dir, out):
    out.mkdir()
    shutil.copy(run_dir / "value.npz", out)
    return out


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork to fan out by")
class TestFanOut:
    def test_results_come_back_in_task_order(self, monkeypatch):
        # seven tasks dealt round-robin to three shares: the parent runs
        # tasks 0, 3 and 6, a worker each the others
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        results = _fan_out([lambda i=i: (i, os.getpid()) for i in range(7)])
        assert [i for i, _ in results] == list(range(7))
        pids = [pid for _, pid in results]
        assert pids[0::3] == [os.getpid()] * 3
        assert pids[1::3] == [forks[0]] * 2 and pids[2::3] == [forks[1]] * 2

    def test_first_exception_in_task_order_is_raised(self, monkeypatch):
        # task 1 (a worker's) raises before task 2 (the parent's) in task
        # order, so its exception is the one a serial run would raise
        _cpus(monkeypatch, 2)

        def fail(exc):
            raise exc

        tasks = [lambda: 0, lambda: fail(solver1d.TruncationError("in the worker")),
                 lambda: fail(ValueError("in the parent")), lambda: 3]
        with pytest.raises(solver1d.TruncationError, match="in the worker"):
            _fan_out(tasks)

    @pytest.mark.parametrize("config", ["tiny", "sym_gamma"])
    def test_reports_of_one_share_and_of_two(self, tmp_path, monkeypatch, config):
        # the example-1 parameters of TINY_CFG, and sym_gamma.cfg, which
        # takes the symmetric_diagonal branch (its band needs x_max = 20;
        # the check is too coarse to pass at this delta, but the reports
        # must agree either way)
        cfg = tmp_path / "c.cfg"
        if config == "tiny":
            cfg.write_text(TINY_CFG)
        else:
            bundled = Path(divopt.__file__).parent / "configs" / "sym_gamma.cfg"
            cfg.write_text(bundled.read_text()
                           + "delta = 0.05\nx1_max = 20\nx2_max = 20\npaths = 4000\nseed = 7\n")
        solved = tmp_path / "solved"
        assert main(["solve2d", "--config", str(cfg), "--out", str(solved)]) == 0
        forks, reports = _count_forks(monkeypatch), {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = _copy_solve(solved, tmp_path / f"cpus{cpus}")
            assert main(["validate", "--config", str(cfg), "--out", str(out)]) in (0, 1)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            # one share forks nothing; two fork one worker per command
            assert len(forks) == 2 * (cpus - 1)
            sim = json.loads((out / "sim.json").read_text())
            assert all(row.pop("wall_s") > 0 for row in sim["results"])
            reports[cpus] = (out / "validate.json").read_bytes(), sim
        assert reports[1] == reports[2]
        checks = [c["name"] for c in json.loads(reports[1][0])["checks"]]
        assert ("symmetric_diagonal" in checks) == (config == "sym_gamma")

    @pytest.mark.parametrize("exc, code, prefix", [
        (solver1d.TruncationError, 3, "validate: "), (ValueError, 2, "error: ")])
    def test_exception_in_a_worker(self, run_dir, tmp_path, monkeypatch, capsys, exc, code,
                                   prefix):
        # a Monte Carlo point of the worker's share raises; the parent's
        # share holds the 1D solves, which TestTruncated1dBands and
        # TestSolveErrorExit cut short in the parent
        _cpus(monkeypatch, 2)
        parent, real = os.getpid(), sim_mod.simulate_policy

        def raising(*args):
            if os.getpid() != parent:
                raise exc("raised in a worker")
            return real(*args)

        monkeypatch.setattr(sim_mod, "simulate_policy", raising)
        out = _copy_solve(run_dir[0], tmp_path / "o")
        capsys.readouterr()
        assert main(["validate", "--config", str(run_dir[1]), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == f"{prefix}raised in a worker\n"
        assert not (out / "validate.json").exists()

    def test_worker_that_dies_is_reaped(self, run_dir, tmp_path):
        # in a fresh interpreter, so a worker left behind would show: the
        # worker's share exits at once, without a result
        code = """
import os, sys
from divopt import cli, simulate
parent, real = os.getpid(), simulate.simulate_policy
os.sched_getaffinity = lambda pid: {0, 1}

def dying(*args):
    if os.getpid() != parent:
        os._exit(9)
    return real(*args)

simulate.simulate_policy = dying
rc = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child of this process is left
    sys.exit(rc)
sys.exit(99)
"""
        out = _copy_solve(run_dir[0], tmp_path / "o")
        src = str(Path(divopt.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code, "validate", "--config", str(run_dir[1]),
                              "--out", str(out)], capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith("validate: ") and len(run.stderr.splitlines()) == 1
        assert "without a result" in run.stderr
        assert not (out / "validate.json").exists()


class TestArtifactsOfAnotherGrid:
    # run_dir holds artifacts solved at delta = 0.1 on [0, 9]^2
    @pytest.mark.parametrize("delta,x_max", [("0.15", "9"), ("0.08", "9"), ("0.2", "18")])
    def test_reading_commands_exit_2(self, run_dir, tmp_path, capsys, delta, x_max):
        # a coarser grid, a finer one, and one of the same shape whose nodes
        # sit elsewhere (twice the step on twice the domain)
        cfg = tmp_path / "other.cfg"
        cfg.write_text(TINY_CFG.replace("delta = 0.1\n", f"delta = {delta}\n")
                       .replace("x1_max = 9", f"x1_max = {x_max}")
                       .replace("x2_max = 9", f"x2_max = {x_max}"))
        out = tmp_path / "o"
        out.mkdir()
        artifacts = ["manifest.json", "policy.csv", "value.csv", "value.npz"]
        for name in artifacts:
            shutil.copy(run_dir[0] / name, out)
        capsys.readouterr()
        for command in ("simulate", "validate", "merger-compare"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "value.npz" in err and len(err.strip().splitlines()) == 1
        assert sorted(p.name for p in out.iterdir()) == artifacts

    def test_value_reader_checks_every_node_once(self, run_dir, tmp_path):
        # a table one row short, one whose x1 axis is shifted by a node,
        # a float32 table, one without its x2 axis and a file that is no
        # archive: none holds each node of the config's grid once, as float64
        out, cfg = run_dir
        cfg_map, _ = load_config(cfg)
        params, _ = build_model(cfg_map)
        grid = build_grid(cfg_map, params)
        with np.load(out / "value.npz", allow_pickle=False) as npz:
            good = dict(npz)
        path = tmp_path / "value.npz"
        for bad in ({**good, "v": good["v"][:-1]}, {**good, "x1": good["x1"] + grid.dx1},
                    {**good, "v": good["v"].astype(np.float32)},
                    {"v": good["v"], "x1": good["x1"]}):
            np.savez(path, **bad)
            with pytest.raises(ValueError, match="value.npz"):
                _read_value_npz(path, grid)
        path.write_bytes(b"n,m,x1,x2,v\n")  # not an npz archive at all
        with pytest.raises(ValueError, match="value.npz"):
            _read_value_npz(path, grid)
        np.savez(path, **good)
        assert np.array_equal(_read_value_npz(path, grid).values, good["v"])


class TestValidateNegativeControl:
    def test_early_stopped_solve_fails_residual(self, tmp_path, monkeypatch):
        # a deliberately loose solve leaves a residual far above the bound:
        # a greedy step that returns the previous policy, once there is one,
        # ends policy iteration after the coarsest grid's first policy and
        # each finer grid's first sweep, before it could take solve2d to the
        # fixed point
        greedy = hjb2d._greedy_pref

        def stale(scheme, v, prev, pref, *scratch):
            if prev.min() < 0:  # no policy yet
                greedy(scheme, v, prev, pref, *scratch)
            else:
                np.copyto(pref, prev)

        monkeypatch.setattr(hjb2d, "_greedy_pref", stale)
        cfg = tmp_path / "loose.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "loose_out"
        assert main(["solve2d", "--config", str(cfg), "--out", str(out)]) == 0
        monkeypatch.undo()
        rc = main(["validate", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        report = json.loads((out / "validate.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "residual" in failed
