"""hyperwalk benchmark: three seeded workloads, each output checked against an oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):
  cli-evolve-json   hyperwalk evolve --L 20 --t T --initial N --out FILE
  cli-timeavg-csv   hyperwalk time-average --L 17 --initial N --format csv --out FILE
  lib-evolve-dense  distribution_at(EvolutionEngine(Level(22)), psi, t) in a worker

A run executes a fixed list of ops drawn from the seed; its length is
--seconds divided by the workload's op budget (about its op time at the seed
commit), so every commit runs the same ops.  With --trace 0 the ops run as child processes and
the run reports wall_s_p50, peak_rss_mib and setup_s.  With --trace 1 the same
ops are replayed in this process with spans around the library's public
functions, and the run reports the per-layer metrics.  Timed ops take times
in the first period [0, pi).  An op fails on a nonzero exit, a missing,
malformed or short output, any probability more than 1e-12 off the oracle, or
a CSV symmetry deviation above 1e-10; fail_frac = failed / attempted.

Every run also probes the default engine at seeded times in [pi, 1e12], where
its error is known to grow with t.  The probe is reported (and, traced, as
check.max_prob_err_large_t) but not gated: it is not an op.

The last line of stdout is one JSON object; the lines before it are the same
numbers for people, and a record of every op (with the sha256 of each CLI
output) is written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import workloads
from workloads import ROOT, SRC, WORK, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hyperwalk" / "__init__.py").is_file():
        print(f"error: no hyperwalk sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    ops = wl.ops(args.seed, workloads.op_count(wl, args.seconds))
    WORK.mkdir(parents=True, exist_ok=True)
    record_path = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    started = time.perf_counter()
    if args.trace:
        result = workloads.trace_run(wl, ops, record_path.with_suffix(".spans.jsonl"))
    elif isinstance(wl, workloads.LibEvolveDense):
        result = workloads.run_lib(wl, ops, deadline=started + workloads.RUN_DEADLINE_S)
    else:
        result = workloads.run_cli(wl, ops, deadline=started + workloads.RUN_DEADLINE_S)

    probe = workloads.large_t_probe(args.seed)
    if args.trace:
        result.metrics["check.max_prob_err_large_t"] = (max(err for _, err in probe), "1")
    result.notes["large_t_probe"] = [{"t": t, "max_err": err} for t, err in probe]

    outcomes = result.outcomes
    attempted = len(ops)
    failed = sum(1 for o in outcomes if o.failure) + attempted - len(outcomes)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": workloads.environment(),
        "notes": result.notes,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "run_s": time.perf_counter() - started,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "ops": [vars(o) for o in outcomes],
    }
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ops {attempted}  run {record['run_s']:.1f} s")
    env = record["environment"]
    print(
        f"  env: nproc {env['nproc']}, {env['cpu_model']}, L3 {env['l3_bytes'] / 2**20:g} MiB, "
        f"python {env['python']}, numpy {env['numpy']}, commit {env['commit']}"
    )
    for o in outcomes:
        t = "" if o.t is None else f"  t={o.t:.6g}"
        digest = f"  sha256 {o.sha256}" if o.sha256 else ""
        status = f"FAIL {o.failure}" if o.failure else "ok"
        print(f"  op {o.index}{t}  {o.wall_s:.4f} s  err {o.max_err:.2g}  {status}{digest}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_frac':40s} {record['fail_frac']:.6g} 1  ({failed}/{attempted} ops failed)")
    for key, value in result.notes.items():
        if key != "large_t_probe":
            print(f"  {key}: {value}")
    worst_t, worst = max(probe, key=lambda p: p[1])
    print(
        f"  large-t probe (not gated): L={workloads.PROBE_L}, {len(probe)} times in [pi, 1e12], "
        f"max err {worst:.2g} at t={worst_t:.6g}"
    )
    print(f"  record: {record_path.relative_to(ROOT)}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items() if not math.isnan(v)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
