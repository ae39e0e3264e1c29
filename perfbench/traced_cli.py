#!/usr/bin/env python3
"""Run one divopt CLI command with a span around each call into a layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <divopt.cli arguments>

The program itself is not changed: before ``divopt.cli.main`` runs, each
public function is replaced, under the name its caller looks it up by,
with a wrapper that records a span (id, name, start, end, parent id, run
id) plus a few facts taken from the call's arguments and result.  Spans
stay in memory and are written to SPANS_JSON when the command returns:
one JSON line ``{"run", "overhead_s"}`` and one JSON line with the spans.
``overhead_s`` is the time spent in tracing code (installing wrappers,
opening and closing spans, serialising them), so a traced command's wall
time minus it is what the untraced command would take.  The exit code is
the command's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.overhead = 0.0
        self._stack = []

    def call(self, name, fn, args, kwargs, annotate=None):
        t_enter = time.perf_counter()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if annotate is not None:
            span.update(annotate(args, kwargs, result))
        self.overhead += (span["start"] - t_enter) + (time.perf_counter() - span["end"])
        return result

    def wrap(self, module, attr, name, annotate=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        setattr(module, attr, traced)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _kernel_facts(args, kwargs, kernel):
    return {"cells": int(len(kernel.cell_i1))}


def _solve_facts(args, kwargs, result):
    report = result[2]
    return {"iterations": report.iterations, "final_sup_increment": report.final_sup_increment}


def _write_facts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _solve_1d_facts(args, kwargs, sol):
    prob = _arg(args, kwargs, 0, "prob")
    # make_auxiliary_problem builds the merged company with b = 1, kappa = 0
    kind = "merger" if prob.b == 1.0 and prob.kappa == 0.0 else "wbar"
    return {"kind": kind, "iterations": sol.iterations, "nodes": int(len(sol.values))}


def _simulate_facts(args, kwargs, res):
    return {"n_paths": res.n_paths, "horizon": res.horizon if math.isfinite(res.horizon) else None}


def install(tracer):
    from divopt import cli, simulate, solver1d, solver2d

    t0 = time.perf_counter()
    tracer.wrap(solver2d, "claim_field", "hjb2d.claim_field")
    tracer.wrap(solver2d, "build_claim_kernel", "hjb2d.build_claim_kernel", _kernel_facts)
    tracer.wrap(cli, "build_claim_kernel", "hjb2d.build_claim_kernel", _kernel_facts)
    tracer.wrap(solver2d, "solve", "solver2d.solve", _solve_facts)
    tracer.wrap(solver2d, "extract_regions", "solver2d.extract_regions")
    for attr in ("write_value_csv", "write_policy_csv", "write_summary_json", "write_region_data"):
        tracer.wrap(solver2d, attr, f"solver2d.{attr}", _write_facts)
    tracer.wrap(solver1d, "solve_1d", "solver1d.solve_1d", _solve_1d_facts)
    tracer.wrap(simulate, "simulate_policy", "simulate.simulate_policy", _simulate_facts)
    tracer.overhead += time.perf_counter() - t0
    return cli


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    cli = install(tracer)
    try:
        return tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        t0 = time.perf_counter()
        spans = json.dumps(tracer.spans)
        tracer.overhead += time.perf_counter() - t0
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"run": run_id, "overhead_s": tracer.overhead}) + "\n" + spans + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
