#!/usr/bin/env python3
"""divopt benchmark: wall time of the CLI at measured true error.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload solve-exp --seed 7 --seconds 15 --trace 0

Each workload runs one documented CLI command (``python -m divopt.cli ...``)
at a time in a fresh child process, in a closed loop with one client: the
next command starts when the previous one has exited, until ``--seconds``
have been measured (at least one command).  The program receives only the
config this script generates from a bundled example and the seed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every command of the loop runs under ``traced_cli.py``
and the last line carries the per-layer metrics.  Every command's outputs are
checked against the stored tol=1e-13 references in ``perfbench/refs``
(see ``make_refs.py``).  A command that fails is counted in the result,
which is still printed; the script exits non-zero without a result only
when it cannot run at all (no sources, no references).  See
``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import collections
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = SRC / "divopt" / "configs"
WORK = ROOT / ".perfbench_work"
REFS = BENCH / "refs"
TINY_REFS = WORK / "tiny-refs"  # make_refs.py --tiny writes them, run.py --tiny reads them

# name -> (bundled config, CLI command, reference, config overrides)
WORKLOADS = {
    "solve-exp": ("example1.cfg", "solve2d", "ex1", {}),
    "solve-atom": ("example3.cfg", "solve2d", "ex3", {}),
    "check-exp": ("example1.cfg", "validate", "ex1", {"paths": "20000"}),
}
REFERENCES = {"ex1": "example1.cfg", "ex3": "example3.cfg"}
# A grid small enough for the smoke test to run every workload in seconds.
TINY = {"delta": "0.2", "x1_max": "8", "x2_max": "8", "paths": "1000"}

ERR_SUP_MAX = 1e-4  # true-error ceiling a solve must meet to count as correct
A0_TOL = 0.15  # the acceptance battery's tolerance on premium points
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# FFT worker threads of every command (the CLI's --threads; its default 0
# means all cores).  On a 2-core shared host the all-core FFT is no faster on
# example 1, and keeping both cores busy exposes the command to the host's
# steal on both: in one measured episode solve2d's wall time grew 40% while
# the single-threaded validate's grew 10-15%.
FFT_WORKERS = 1
MIB = 2.0**20

# setup_s: what every CLI command pays before its own work starts, with the
# commands' FFT worker count (argv[2]).
SETUP_CODE = """
import sys
from divopt import cli, hjb2d
hjb2d.set_fft_workers(int(sys.argv[2]))
cfg, _ = cli.load_config(sys.argv[1])
params, law = cli.build_model(cfg)
grid = cli.build_grid(cfg, params)
cli.build_claim_kernel(params, law, grid)
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing references, a child that cannot start)."""


def write_config(path, base, overrides):
    """Copy a bundled config, replacing or appending the given keys."""
    lines, seen = [], set()
    for raw in (CONFIGS / base).read_text().splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            lines.append(raw)
    lines += [f"{k} = {v}" for k, v in overrides.items() if k not in seen]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


Child = collections.namedtuple("Child", "code wall rss_mb")


def run_child(argv, log_path, deadline):
    """Run one child to completion and return its ``Child`` record.

    The child is killed at ``deadline`` (a perf_counter value) and then
    reports a non-zero exit code.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / MIB)


def cli_argv(command, cfg, out):
    return [sys.executable, "-m", "divopt.cli", command, "--config", str(cfg), "--out", str(out),
            "--threads", str(FFT_WORKERS)]


def source_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "divopt").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_workers": FFT_WORKERS,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------- references


def load_reference(refs_dir, name):
    meta = json.loads((Path(refs_dir) / f"{name}.json").read_text())
    with gzip.open(Path(refs_dir) / meta["values_file"], "rt") as fh:
        table = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    meta["n"] = table[:, 0].astype(int)
    meta["m"] = table[:, 1].astype(int)
    meta["v"] = table[:, 2]
    return meta


def read_values(path, shape):
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 4), ndmin=2)
    n, m = data[:, 0].astype(int), data[:, 1].astype(int)
    if n.max() + 1 != shape[0] or m.max() + 1 != shape[1]:
        raise ValueError(f"value table shape {(n.max() + 1, m.max() + 1)} != reference {tuple(shape)}")
    values = np.full(tuple(shape), np.nan)
    values[n, m] = data[:, 2]
    return values


def err_sup(value_csv, ref):
    """sup |v - v_ref| over the reference's stored nodes."""
    values = read_values(value_csv, ref["shape"])
    return float(np.max(np.abs(values[ref["n"], ref["m"]] - ref["v"])))


def a0_match(points, ref_points):
    if len(points) != len(ref_points):
        return False
    return all(abs(p[0] - r[0]) <= A0_TOL and abs(p[1] - r[1]) <= A0_TOL
               for p, r in zip(sorted(points), sorted(ref_points)))


def check_solve(out, ref):
    """Output checks of one solve2d command; returns (problems, err_sup)."""
    problems = []
    try:
        summary = json.loads((out / "summary.json").read_text())
        err = err_sup(out / "value.csv", ref)
    except (OSError, ValueError) as exc:
        return [f"unreadable artifacts: {exc}"], None
    if summary["component_counts"] != ref["component_counts"]:
        problems.append(f"component counts {summary['component_counts']} != {ref['component_counts']}")
    if not a0_match(summary["a0_points"], ref["a0_points"]):
        problems.append(f"a0_points {summary['a0_points']} vs {ref['a0_points']} +-{A0_TOL}")
    if not err < ERR_SUP_MAX:
        problems.append(f"err_sup {err:.3e} >= {ERR_SUP_MAX:.0e}")
    return problems, err


def check_validate(out):
    try:
        report = json.loads((out / "validate.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable validate.json: {exc}"]
    if report.get("pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        return [f"validate failed: {failed}"]
    return []


# ------------------------------------------------------------------ workload


class Run:
    """One benchmark run of one workload in a fresh work directory."""

    def __init__(self, workload, seed, tiny, t_start):
        base, self.command, ref_name, overrides = WORKLOADS[workload]
        self.deadline = t_start + RUN_LIMIT_S
        self.dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.run_id = f"{workload}-{seed}-{self.dir.name}"
        self.attempted = self.failed = 0
        self.problems = []
        self.err = []
        self.solved = None
        try:
            cfg = dict(TINY if tiny else {}, **overrides, seed=str(seed))
            self.cfg = write_config(self.dir / "workload.cfg", base, cfg)
            refs = TINY_REFS if tiny else REFS
            try:
                self.ref = load_reference(refs, ref_name)
            except (OSError, ValueError, KeyError) as exc:
                raise BenchError(f"no usable reference {ref_name} in {refs} ({exc}); "
                                 f"make it with make_refs.py{' --tiny' if tiny else ''}") from exc
            if self.command == "validate":
                self.solved = self.cached_solve()
        except BaseException:
            self.close()
            raise

    def record(self, tag, problems):
        """Count one attempted command; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{tag}: " + "; ".join(problems))

    def cached_solve(self):
        """ex1 artifacts for validate, solved once per source tree and grid.

        solve2d reads neither ``seed`` nor ``paths``, so the artifacts are
        shared by every seed; set-up time is not measured.  The artifacts get
        the solve workloads' output checks.  If the solve exits non-zero or
        fails a check, that counts as the run's one attempted and failed
        command, and None is returned: there is nothing to validate.
        """
        text = "".join(line + "\n" for line in self.cfg.read_text().splitlines()
                       if line.split("=", 1)[0].strip() not in ("seed", "paths"))
        key = hashlib.sha256((source_digest() + text).encode()).hexdigest()[:20]
        target = WORK / "cache" / key
        if not (target / "summary.json").is_file():
            tmp = WORK / "cache" / f"{key}.tmp-{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            code = run_child(cli_argv("solve2d", self.cfg, tmp), tmp / "solve.log", self.deadline).code
            if code != 0:
                log = (tmp / "solve.log").read_text(errors="replace").strip().splitlines()[-1:]
                shutil.rmtree(tmp, ignore_errors=True)
                self.record("set-up solve2d", [f"exit code {code}"] + log)
                return None
            try:
                os.rename(tmp, target)
            except OSError:  # another run filled the cache first
                shutil.rmtree(tmp, ignore_errors=True)
        problems, err = check_solve(target, self.ref)
        if err is not None:
            self.err.append(err)
        if problems:
            self.record("set-up solve2d", problems)
            return None
        return target

    @property
    def blocked(self):
        """The set-up solve failed, so the workload's command cannot run."""
        return self.command == "validate" and self.solved is None

    def setup_seconds(self):
        """Median wall time of the set-up children; None if one fails."""
        walls = []
        for i in range(SETUP_REPEATS):
            child = run_child([sys.executable, "-c", SETUP_CODE, str(self.cfg), str(FFT_WORKERS)],
                              self.dir / f"setup{i}.log", self.deadline)
            if child.code != 0:
                self.record(f"setup{i}", [f"exit code {child.code}"])
                return None
            walls.append(child.wall)
        return statistics.median(walls)

    def prepare_out(self, tag):
        out = self.dir / f"out-{tag}"
        if self.solved is None:
            out.mkdir()
        else:
            shutil.copytree(self.solved, out)
        return out

    def command_argv(self, out, traced_spans=None):
        argv = cli_argv(self.command, self.cfg, out)
        if traced_spans is None:
            return argv
        return [sys.executable, str(BENCH / "traced_cli.py"), str(traced_spans), self.run_id,
                "--"] + argv[3:]

    def execute(self, tag, traced_spans=None):
        """Run the workload's command once and check its outputs."""
        out = self.prepare_out(tag)
        child = run_child(self.command_argv(out, traced_spans), self.dir / f"{tag}.log", self.deadline)
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        if child.code == 0 and self.command == "solve2d":
            found, err = check_solve(out, self.ref)
            problems += found
            if err is not None:
                self.err.append(err)
        elif self.command == "validate":
            problems += check_validate(out)
        self.record(tag, problems)
        shutil.rmtree(out, ignore_errors=True)
        return child

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run, seconds, traced):
    """Closed loop: start the next command while under the measuring window.

    Returns each command's ``Child`` record and, when traced, its
    (spans, tracing overhead).  Runs nothing if the run is blocked.
    """
    children, traces = [], []
    t0 = time.perf_counter()
    while not run.blocked and (not children or time.perf_counter() - t0 < seconds):
        tag = f"cmd{len(children)}"
        spans_path = run.dir / f"spans-{tag}.jsonl" if traced else None
        children.append(run.execute(tag, spans_path))
        if traced:
            traces.append(read_spans(spans_path))
    return children, traces


def read_spans(path):
    try:
        meta, spans = path.read_text().splitlines()
        return json.loads(spans), json.loads(meta)["overhead_s"]
    except (OSError, ValueError):  # the traced command died before writing
        return [], 0.0


# -------------------------------------------------------------- layer metrics


def median_or_none(xs):
    """Median, or None (JSON null) when nothing was measured."""
    xs = list(xs)
    return statistics.median(xs) if xs else None


def _percentile(xs, q):
    return float(np.percentile(xs, q)) if xs else 0.0


def layer_metrics(spans, overhead):
    """Per-layer numbers from the spans of one traced command.

    A span's self time is its duration minus that of its children (calls
    run one after another, so children never overlap).  Layers the command
    does not reach read 0.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(group):
        return float(sum(dur(s) for s in group))

    def self_time(group):
        return total(group) - float(sum(total(children.get(s["id"], ())) for s in group))

    def named(name):
        return [s for s in spans if s["name"] == name]

    kernels = named("hjb2d.build_claim_kernel")
    fields_ms = [1000.0 * dur(s) for s in named("hjb2d.claim_field")]
    solves = named("solver2d.solve")
    sweeps = sum(s.get("iterations", 0) for s in solves)
    solve_self = self_time(solves)
    writes = [s for s in spans if s["name"].startswith("solver2d.write_")]
    one_d = named("solver1d.solve_1d")
    sims = named("simulate.simulate_policy")
    sim_s = total(sims)
    horizons = [s["horizon"] for s in sims if s.get("horizon") is not None]
    return {
        "hjb2d.build_claim_kernel_s": (total(kernels), "s"),
        "hjb2d.kernel_cells": (max((s.get("cells", 0) for s in kernels), default=0), "count"),
        "hjb2d.claim_field_calls": (len(fields_ms), "count"),
        "hjb2d.claim_field_s": (sum(fields_ms) / 1000.0, "s"),
        "hjb2d.claim_field_ms_p50": (_percentile(fields_ms, 50), "ms"),
        "hjb2d.claim_field_ms_p98": (_percentile(fields_ms, 98), "ms"),
        "solver2d.sweeps": (sweeps, "count"),
        "solver2d.solve_self_s": (solve_self, "s"),
        "solver2d.sweep_ms": (1000.0 * solve_self / sweeps if sweeps else 0.0, "ms"),
        "solver2d.final_sup_increment": (solves[-1].get("final_sup_increment", 0.0) if solves else 0.0,
                                         "value_units"),
        "solver2d.extract_regions_s": (total(named("solver2d.extract_regions")), "s"),
        "solver2d.write_s": (total(writes), "s"),
        "solver2d.artifact_mb": (sum(s.get("bytes", 0) for s in writes) / MIB, "MB"),
        "solver1d.wbar_s": (total(s for s in one_d if s.get("kind") == "wbar"), "s"),
        "solver1d.merger_s": (total(s for s in one_d if s.get("kind") == "merger"), "s"),
        "solver1d.sweeps": (sum(s.get("iterations", 0) for s in one_d), "count"),
        "solver1d.nodes": (sum(s.get("nodes", 0) for s in one_d), "count"),
        "simulate.calls": (len(sims), "count"),
        "simulate.simulate_policy_s": (sim_s, "s"),
        "simulate.paths_per_s": (sum(s.get("n_paths", 0) for s in sims) / sim_s if sim_s else 0.0, "1/s"),
        "simulate.horizon_mean": (statistics.fmean(horizons) if horizons else 0.0, "time"),
        "cli.self_s": (self_time(named("cli.main")), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


# ---------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test grid, checked against make_refs.py --tiny references")
    return p.parse_args(argv)


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "divopt" / "cli.py").is_file():
        print(f"run.py: no divopt sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    run = Run(args.workload, args.seed, args.tiny, t_start)
    try:
        if args.trace:
            children, traces = measure(run, args.seconds, traced=True)
            per_command = [layer_metrics(spans, overhead) for spans, overhead in traces]
            metrics = {name: (median_or_none(m[name][0] for m in per_command), unit)
                       for name, (_, unit) in layer_metrics([], 0.0).items()}
        else:
            setup_s = run.setup_seconds()
            children, _ = measure(run, args.seconds, traced=False)
            metrics = {
                "wall_s": (median_or_none(c.wall for c in children), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (max((c.rss_mb for c in children), default=None), "MB"),
                "err_sup": (max(run.err, default=None), "value_units"),
                "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
            }
    finally:
        run.close()

    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}: {len(children)} command(s)")
    for i, c in enumerate(children):
        print(f"  cmd{i}: wall {c.wall:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
