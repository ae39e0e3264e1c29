#!/usr/bin/env python3
"""Regenerate the tol=1e-13 reference solves that ``err_sup`` reads.

Usage (from the root of a source checkout):

    python3 perfbench/make_refs.py          # ex1 and ex3 into perfbench/refs
    python3 perfbench/make_refs.py --tiny   # smoke-test grid, into .perfbench_work/tiny-refs

Each reference is ``divopt solve2d`` on a bundled example with ``tol``
replaced by 1e-13.  It stores the value table at every STRIDE-th node in
both axes (``<name>_value.csv.gz``) and, in ``<name>.json``, the
provenance (commit, source digest, tol, sweeps, wall time) plus the region
signature the output checks compare against (component counts and
premium points).  Each full-size solve takes a few minutes on one core
pair.
"""

from __future__ import annotations

import argparse
import gzip
import json
import platform
import shutil
import sys
import time

import run as bench

TOL = 1e-13
STRIDE = 4


def make_reference(name, out_dir, tiny, work):
    import numpy as np

    cfg = bench.write_config(work / f"{name}.cfg", bench.REFERENCES[name],
                             dict(bench.TINY if tiny else {}, tol=repr(TOL)))
    solved = work / name
    child = bench.run_child(bench.cli_argv("solve2d", cfg, solved), work / f"{name}.log",
                            time.perf_counter() + 3600.0)
    if child.code != 0:
        raise SystemExit(f"make_refs: solve2d on {name} exited {child.code}; see {work / f'{name}.log'}")
    summary = json.loads((solved / "summary.json").read_text())
    manifest = json.loads((solved / "manifest.json").read_text())
    data = np.loadtxt(solved / "value.csv", delimiter=",", skiprows=1, usecols=(0, 1, 4), ndmin=2)
    n, m = data[:, 0].astype(int), data[:, 1].astype(int)
    keep = (n % STRIDE == 0) & (m % STRIDE == 0)
    values_file = f"{name}_value.csv.gz"
    # mtime=0 keeps the archive byte-identical across regenerations
    with open(out_dir / values_file, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(b"n,m,v\n")
        for i, j, v in zip(n[keep], m[keep], data[keep, 2]):
            gz.write(f"{i},{j},{float(v)!r}\n".encode())
    meta = {
        "config": bench.REFERENCES[name],
        "overrides": dict(bench.TINY) if tiny else {},
        "tol": TOL,
        "stride": STRIDE,
        "shape": [int(n.max()) + 1, int(m.max()) + 1],
        "sweeps": manifest["iterations"],
        "final_sup_increment": summary["final_sup_increment"],
        "solve_wall_s": child.wall,
        "commit": bench.git_commit(),
        "source_sha256": bench.source_digest(),
        "python": platform.python_version(),
        "component_counts": summary["component_counts"],
        "a0_points": summary["a0_points"],
        "values_file": values_file,
    }
    (out_dir / f"{name}.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"{name}: {meta['sweeps']} sweeps in {child.wall:.1f} s, {int(keep.sum())} nodes stored")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tiny", action="store_true", help="smoke-test grid of run.py --tiny")
    args = p.parse_args(argv)
    out_dir = bench.TINY_REFS if args.tiny else bench.REFS
    out_dir.mkdir(parents=True, exist_ok=True)
    work = bench.WORK / f"refs-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        for name in sorted(bench.REFERENCES):
            make_reference(name, out_dir, args.tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
