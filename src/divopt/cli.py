"""Configuration-driven entry points.

Flat key=value configs drive the solvers, the Monte Carlo cross-checks,
and the validation battery; every run writes a manifest echoing the config
byte for byte together with versions, seeds, and timings so deterministic
runs can be reproduced exactly.

`simulate` and `validate` run their independent jobs in forked worker
processes, one per CPU the process may run on (_fan_out), and write the
reports of a serial run.

Exit codes: 0 success, 1 validation failure, 2 bad config or missing
artifacts, 3 a solve that cannot finish (a policy cap, a policy value
below the iterate or a stalled policy evaluation, a 1D band cut by its
truncation, or a worker process that died without a result).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .hjb2d import (
    RESIDUAL_REL,
    NonConvergenceError,
    ValueField,
    build_claim_kernel,
    set_fft_workers,
)
from .model import (
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    SurplusPoint,
    validate_params,
)
from . import solver1d, solver2d, simulate as sim_mod

__all__ = ["main", "load_config", "build_model", "build_grid", "ConfigError"]


class ConfigError(ValueError):
    pass


def load_config(path):
    """Parse a flat key=value file ('#' starts a comment)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg, text


def _get_float(cfg, key, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config key: {key}")
    try:
        val = float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} is not a number: {cfg[key]!r}")
    if not math.isfinite(val):
        raise ConfigError(f"config key {key} must be finite: {cfg[key]!r}")
    return val


def _get_count(cfg, key, default, low):
    """An integer-valued key (paths, seed) in [low, 2**128), read as the
    exact decimal the text states (a float would round past 2**53)."""
    import decimal  # here, not at the top: it adds 0.27 MB to every command's peak memory
    if key not in cfg:
        return default
    try:
        val = decimal.Decimal(cfg[key])
    except decimal.InvalidOperation:
        val = decimal.Decimal("nan")
    # bounded before int(), which would spell out a huge exponent's digits
    if not (val.is_finite() and low <= val < 2**128 and val == val.to_integral_value()):
        raise ConfigError(f"config key {key} must be an integer in [{low}, 2**128): {cfg[key]!r}")
    return int(val)


def _get_seed(args, cfg):
    """--seed if given, else the config's seed key; both in [0, 2**128)."""
    if args.seed is None:
        return _get_count(cfg, "seed", 1, 0)
    if not 0 <= args.seed < 2**128:
        raise ConfigError(f"--seed must be an integer in [0, 2**128): {args.seed}")
    return args.seed


def _report_fields(report):
    """What a solve reports of its fixed-point run, for the manifests."""
    return {key: getattr(report, key) for key in (
        "iterations", "residual_max", "policies", "gmres_matvecs", "gmres_residual", "phases",
        "levels", "disc_error_est", "correlation", "kernel_cells", "fshape")}


def build_model(cfg):
    params = validate_params(
        ModelParams(
            c1=_get_float(cfg, "c1"),
            c2=_get_float(cfg, "c2"),
            b1=_get_float(cfg, "b1"),
            b2=_get_float(cfg, "b2"),
            lam=_get_float(cfg, "lambda"),
            q=_get_float(cfg, "q"),
        )
    )
    kind = cfg.get("claim.kind")
    if kind == "exponential":
        law = Exponential(_get_float(cfg, "claim.rate"))
    elif kind == "erlang2":
        law = Erlang2(_get_float(cfg, "claim.rate"))
    elif kind == "deterministic":
        law = Deterministic(_get_float(cfg, "claim.atom"))
    else:
        raise ConfigError(f"claim.kind must be exponential|erlang2|deterministic, got {kind!r}")
    return params, law


def build_grid(cfg, params):
    return GridSpec.make(
        params,
        delta=_get_float(cfg, "delta"),
        x1_max=_get_float(cfg, "x1_max"),
        x2_max=_get_float(cfg, "x2_max"),
    )


def _grid_1d(cfg, delta=lambda: None, x_max=lambda: None):
    """A 1D solve's delta and x_max keywords: delta_1d and x_max_1d, or where one
    is absent its default, called only then (None: merger_compare's own)."""
    return {"delta": _get_float(cfg, "delta_1d") if "delta_1d" in cfg else delta(),
            "x_max": _get_float(cfg, "x_max_1d") if "x_max_1d" in cfg else x_max()}


def _write_manifest(out, name, cfg_text, extra):
    payload = {
        "command": name,
        "config_echo": cfg_text,
        "versions": {
            "divopt": __version__,
            "numpy": np.__version__,
        },
        "rng": sim_mod.RNG_ALGORITHM,
    }
    payload.update(extra)
    with open(Path(out) / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_value_npz(path, v: ValueField):
    """The value table as value.npz, uncompressed: v on the grid, and the
    node coordinates x1 = n*dx1 and x2 = m*dx2, the doubles value.csv prints."""
    g = v.grid
    np.savez(path, v=v.values, x1=np.arange(g.n_max + 1) * g.dx1,
             x2=np.arange(g.m_max + 1) * g.dx2)


def _read_value_npz(path, grid):
    """The value table of value.npz, checked to be float64 on the config's
    grid: its shape, and its node coordinates to 1e-12 relative."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            v, x1, x2 = npz["v"], npz["x1"], npz["x2"]
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a value table: {exc}") from exc
    if not (v.dtype == x1.dtype == x2.dtype == np.float64 and v.shape == grid.shape
            and x1.shape == grid.shape[:1] and x2.shape == grid.shape[1:]
            and np.allclose(x1, np.arange(grid.n_max + 1) * grid.dx1, rtol=1e-12, atol=0)
            and np.allclose(x2, np.arange(grid.m_max + 1) * grid.dx2, rtol=1e-12, atol=0)):
        raise ValueError(f"{path}: is not a value table of the config's "
                         f"{grid.shape[0]}x{grid.shape[1]} grid; "
                         "was it solved with another delta or truncation?")
    return ValueField(grid, v)


def _load_solve(args, paths=None):
    """(cfg, params, law, grid, v, n_paths, seed) of a reading command: v is
    the value table in --out, n_paths (default paths) and seed are None if
    paths is.  The config is read first; then value.npz must be in --out,
    or FileNotFoundError names it."""
    cfg, _ = load_config(args.config)
    params, law = build_model(cfg)
    grid = build_grid(cfg, params)
    n_paths, seed = (None, None) if paths is None else (_get_count(cfg, "paths", paths, 2),
                                                        _get_seed(args, cfg))
    if not (Path(args.out) / "value.npz").is_file():
        raise FileNotFoundError("missing value.npz")
    v = _read_value_npz(Path(args.out) / "value.npz", grid)
    return cfg, params, law, grid, v, n_paths, seed


def cmd_solve2d(args):
    cfg, cfg_text = load_config(args.config)
    params, law = build_model(cfg)
    grid = build_grid(cfg, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    v, policy, report = solver2d.solve(params, law, grid)
    region = solver2d.extract_regions(policy, v)
    solver2d.write_value_csv(out / "value.csv", v)
    _write_value_npz(out / "value.npz", v)
    solver2d.write_policy_csv(out / "policy.csv", policy, region)
    solver2d.write_summary_json(out / "summary.json", region, report)
    solver2d.write_region_data(out / "regions.dat", region, out / "regions.gp")
    _write_manifest(
        out,
        "solve2d",
        cfg_text,
        {**_report_fields(report), "eps_tie": policy.eps_tie,
         "wall_time": time.perf_counter() - t0},
    )
    print(f"solve2d: {len(report.levels)} levels, {report.iterations} sweeps, "
          f"{report.policies} policies, residual {report.residual_max:.3e}")
    return 0


def cmd_solve1d(args):
    cfg, cfg_text = load_config(args.config)
    params, law = build_model(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prob = solver1d.make_auxiliary_problem(params, law, args.kind)
    # delta and x1_max are read only when delta_1d and x_max_1d are absent,
    # for their defaults
    sol = solver1d.solve_1d(prob, **_grid_1d(
        cfg, lambda: _get_float(cfg, "delta") / 4.0, lambda: 2 * _get_float(cfg, "x1_max", 14.0)))
    with open(out / f"value1d_{args.kind}.csv", "w") as fh:
        fh.write("x,value,label\n")
        for n, val in enumerate(sol.values):
            x = n * sol.dx
            fh.write(f"{x:.17g},{val:.17g},{sol.band.label_at(x)}\n")
    with open(out / f"band_{args.kind}.json", "w") as fh:
        json.dump(
            {
                "breakpoints": sol.band.breakpoints,
                "intervals": sol.band.intervals,
                "a_points": sol.band.a_points,
                **_report_fields(sol),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    _write_manifest(
        out,
        f"solve1d:{args.kind}",
        cfg_text,
        {**_report_fields(sol), "wall_time": sol.wall_time},
    )
    print(f"solve1d[{args.kind}]: breakpoints {sol.band.breakpoints}")
    return 0


def _sample_points(cfg, grid):
    if "sim.points" in cfg:
        pts = []
        for chunk in cfg["sim.points"].split(";"):
            try:
                x1, x2 = (float(s) for s in chunk.split(":"))
            except ValueError:
                x1 = x2 = math.nan
            if not math.isfinite(x1 + x2):
                raise ConfigError(f"config key sim.points: expected x1:x2, got {chunk!r}")
            if not (0 <= x1 <= grid.x1_max + 1e-9 and 0 <= x2 <= grid.x2_max + 1e-9):
                raise ConfigError(
                    f"config key sim.points: {chunk!r} is outside the solved grid "
                    f"[0, {grid.x1_max:g}] x [0, {grid.x2_max:g}]"
                )
            pts.append((x1, x2))
        return pts
    fr = [(0.25, 0.25), (0.5, 0.5), (0.25, 0.6), (0.6, 0.25), (0.45, 0.7)]
    return [
        (round(f1 * grid.x1_max / grid.dx1) * grid.dx1,
         round(f2 * grid.x2_max / grid.dx2) * grid.dx2)
        for f1, f2 in fr
    ]


def _run_share(tasks):
    """(True, result) of each task in turn, until one raises: then (False, its exception)."""
    outcomes = []
    for task in tasks:
        try:
            outcomes.append((True, task()))
        except Exception as exc:  # raised again by _fan_out, in the parent
            return outcomes + [(False, exc)]
    return outcomes


def _fan_out(tasks):
    """Each task's result, in task order (a task takes no arguments).  The
    tasks are dealt round-robin to one share per CPU the process may run
    on: the parent runs share 0, an os.fork() worker each other share and
    sends back its outcomes pickled through a pipe.  The first exception in
    task order is raised, as in a serial run; a worker that exits without
    a result raises ChildProcessError."""
    shares = (min(len(tasks), len(os.sched_getaffinity(0)))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    workers, outcomes = [], {}
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for k in range(1, shares):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: send its share's outcomes, then leave at once
                code = 1
                try:
                    with open(w, "wb") as fh:
                        pickle.dump(_run_share(tasks[k::shares]), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            workers.append((k, pid, r))
        outcomes[0] = _run_share(tasks[0::shares])
    finally:
        for k, pid, r in workers:  # read each pipe to its end, then reap its worker
            with open(r, "rb") as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            outcomes[k] = pickle.loads(data) if status == 0 else [(False, ChildProcessError(
                f"worker process {pid} exited with status {status}, without a result"))]
    for i in range(len(tasks)):  # a share's outcomes end at its first exception
        ok, value = outcomes[i % shares][i // shares]
        if not ok:
            raise value
    return [outcomes[i % shares][i // shares][1] for i in range(len(tasks))]


def _point_task(params, law, strat, x, n_paths, stream):
    """A task of _fan_out: the Monte Carlo run from x = (x1, x2) on its
    stream, and the run's wall time."""
    def run():
        t0 = time.perf_counter()
        res = sim_mod.simulate_policy(params, law, strat, SurplusPoint(*x), n_paths, stream)
        return res, time.perf_counter() - t0
    return run


def cmd_simulate(args):
    cfg, params, law, grid, v, n_paths, seed = _load_solve(args, paths=10_000)
    policy, _ = solver2d.greedy_policy(build_claim_kernel(params, law, grid), v)
    table = sim_mod.PolicyTable(policy)
    table.flow, table.nodes  # built once, before the workers fork
    points = _sample_points(cfg, grid)
    # one independent stream per start point: child i of the seed
    streams = np.random.SeedSequence(seed).spawn(len(points))
    runs = _fan_out([_point_task(params, law, table, x, n_paths, stream)
                     for x, stream in zip(points, streams)])
    rows = []
    for (x1, x2), (res, wall) in zip(points, runs):
        z = sim_mod.estimate_gap(res, v.extend(x1, x2))
        rows.append(
            {
                "x1": x1, "x2": x2, "mean": res.mean, "stderr": res.stderr,
                "solver_value": v.extend(x1, x2), "z": z, "horizon": res.horizon,
                "rounds": res.rounds, "ruined": res.ruined, "horizon_cut": res.horizon_cut,
                "spawn_key": list(res.spawn_key), "wall_s": wall, "tail_bound": res.tail_bound,
            }
        )
    with open(Path(args.out) / "sim.json", "w") as fh:
        json.dump({"paths": n_paths, "seed": seed, "rng": sim_mod.RNG_ALGORITHM,
                   "results": rows}, fh, indent=2)
        fh.write("\n")
    worst = max(abs(r["z"]) for r in rows)
    print(f"simulate: {len(rows)} points, max |z| = {worst:.2f}")
    return 0


def cmd_merger_compare(args):
    cfg, params, law, grid, v, _, _ = _load_solve(args)
    m_cost = args.m_cost if args.m_cost is not None else _get_float(cfg, "merger.cost", 0.0)
    samples = _sample_points(cfg, grid)
    rows, merger = solver1d.merger_compare(params, law, m_cost, samples, v, **_grid_1d(cfg))
    with open(Path(args.out) / "merger_compare.csv", "w") as fh:
        fh.write("x1,x2,merger_reduced,v2d_reduced\n")
        for x1, x2, vm, vd in rows:
            vm_s = "nan" if vm is None else f"{vm:.17g}"
            fh.write(f"{x1:.17g},{x2:.17g},{vm_s},{vd:.17g}\n")
    print(f"merger-compare: wrote {len(rows)} rows (m = {m_cost})")
    return 0


def cmd_validate(args):
    cfg, params, law, grid, v, n_paths, seed = _load_solve(args, paths=20_000)
    policy, resid = solver2d.greedy_policy(build_claim_kernel(params, law, grid), v)
    resid_bound = RESIDUAL_REL * (1.0 + float(v.values.max()))
    checks = []

    def check(name, ok, detail="", value=None, bound=None):
        entry = {"name": name, "pass": bool(ok), "detail": detail}
        if value is not None:
            entry.update(value=float(value), bound=float(bound))
        checks.append(entry)

    check("residual", resid <= resid_bound, f"residual {resid:.3e} vs {resid_bound:.3e}", resid,
          resid_bound)

    above = v.values - (np.arange(grid.n_max + 1)[:, None] * grid.dx1
                        + np.arange(grid.m_max + 1)[None, :] * grid.dx2)
    low, high = float(above.min()), float(above.max()) - (params.c1 + params.c2) / params.q
    check("lower_bound", low >= -1e-9, "", low, -1e-9)
    check("upper_bound", high <= 1e-9, "", high, 1e-9)
    inc = min(float((np.diff(v.values, axis=axis) - dx).min())
              for axis, dx in enumerate((grid.dx1, grid.dx2)))
    check("increments", inc >= -1e-9, "", inc, -1e-9)

    dev = solver2d.check_D1_identity(v, params)
    check("d1_identity", dev <= 2 * (grid.dx1 + grid.dx2), f"max deviation {dev:.4f}",
          dev, 2 * (grid.dx1 + grid.dx2))

    def one_d():
        """The checks against the 1D solves, as check's arguments."""
        wbar = solver1d.solve_1d(solver1d.make_auxiliary_problem(params, law, "wbar"), **_grid_1d(
            cfg, lambda: grid.delta / 4.0, lambda: grid.x2_max * 2.0))
        if params.is_symmetric:
            xs = np.linspace(0.2, 0.8, 7) * min(grid.x1_max, grid.x2_max)
            rel = max(
                abs(v.extend((params.b1 / params.b2) * x, x) - wbar.extend(x))
                / max(1.0, wbar.extend(x))
                for x in xs
            )
            found = [("symmetric_diagonal", rel <= 1e-2, f"max rel dev {rel:.2e}", rel, 1e-2)]
        else:
            sub = solver2d.check_tilde_suboptimality(params, law, wbar)
            if sub.get("applicable", True):
                found = [("reflection_suboptimal", sub["witness"][1] > 0,
                          f"L(tilde) = {sub['witness'][1]:.4f} at {sub['witness'][0]}",
                          sub["witness"][1], 0.0)]
            else:
                found = [("reflection_suboptimal", True,
                          "no-pay set empty: take-the-money regime")]
        rows, _ = solver1d.merger_compare(
            params, law, 0.0,
            [(n * grid.dx1, m * grid.dx2)
             for n in range(0, grid.n_max + 1, max(1, grid.n_max // 20))
             for m in range(0, grid.m_max + 1, max(1, grid.m_max // 20))],
            v, **_grid_1d(cfg),
        )
        worst_gap = min(r[2] - r[3] for r in rows if r[2] is not None)
        return found + [("merger_dominance", worst_gap >= -10 * resid_bound,
                         f"min gap {worst_gap:.3e}", worst_gap, -10 * resid_bound)]

    table = sim_mod.PolicyTable(policy)
    table.flow, table.nodes  # built once, before the workers fork
    points = _sample_points(cfg, grid)[:3]
    # child i of the seed for point i, as in simulate, and the next for TakeAndRun
    *streams, tr_stream = np.random.SeedSequence(seed).spawn(len(points) + 1)
    checks_1d, *runs = _fan_out([one_d] + [_point_task(params, law, table, x, n_paths, stream)
                                           for x, stream in zip(points, streams)])
    for entry in checks_1d:
        check(*entry)
    worst_z = 0.0
    for (x1, x2), (res, _) in zip(points, runs):
        worst_z = max(worst_z, abs(sim_mod.estimate_gap(res, v.extend(x1, x2))))
    check("mc_policy_crosscheck", worst_z <= 3.0, f"max |z| = {worst_z:.2f}", worst_z, 3.0)

    x0 = SurplusPoint(grid.x1_max / 3, grid.x2_max / 3)
    res = sim_mod.simulate_policy(params, law, sim_mod.TakeAndRun(), x0, n_paths, tr_stream)
    target = x0.x1 + x0.x2 + (params.c1 + params.c2) / (params.q + params.lam)
    z = sim_mod.estimate_gap(res, target)
    check("mc_take_and_run", abs(z) <= 3.0, f"z = {z:.2f}", z, 3.0)

    all_ok = all(c["pass"] for c in checks)
    with open(Path(args.out) / "validate.json", "w") as fh:
        json.dump({"pass": all_ok, "checks": checks}, fh, indent=2)
        fh.write("\n")
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']} {c['detail']}".rstrip())
    return 0 if all_ok else 1


def main(argv=None):
    commands = {"solve2d": cmd_solve2d, "solve1d": cmd_solve1d, "simulate": cmd_simulate,
                "validate": cmd_validate, "merger-compare": cmd_merger_compare}
    parser = argparse.ArgumentParser(prog="divopt", description=__doc__)
    parser.add_argument("command", choices=list(commands))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--threads", type=int, default=0,
                        help="accepted, no effect: the FFT runs on one thread")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--kind", choices=["wbar", "merger"], default="wbar",
                        help="solve1d problem kind")
    parser.add_argument("--m-cost", type=float, default=None,
                        help="merger cost for merger-compare")
    args = parser.parse_args(argv)
    set_fft_workers(args.threads)
    try:
        return commands[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # a solve artifact a reading command needs
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, solver1d.TruncationError, ChildProcessError) as exc:
        # a solve that cannot finish, or a worker that died: one line on stderr, exit 3
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
