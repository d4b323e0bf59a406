"""Benchmark of lempertpoles: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload plane_eval --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ./src.  The run
repeats whole rounds of the workload's seeded operations until --seconds of
operation time have passed, and checks every output against the references
in checks.py between rounds.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a run with the tracer's wrappers
installed.  The last line of stdout is the result object; a copy with
details goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(HERE, "out")
# set-up is timed in this many fresh interpreters and reported as the median
SETUP_PROBES = 5


def import_package():
    """Import lempertpoles from ./src of the checkout, and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lempertpoles", "__init__.py")):
        sys.exit(f"perfbench: no package source at {src}; run from the repository root")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import lempertpoles
    import lempertpoles.covering_domains
    import lempertpoles.disc_domain
    import lempertpoles.interpolation
    import lempertpoles.node_optimizer
    import lempertpoles.product_engine

    if not os.path.abspath(lempertpoles.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: lempertpoles was imported from {lempertpoles.__file__}, not {src}")
    return lempertpoles


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("plane_eval", "certify", "bidisc_failure", "bidisc_equality"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import, build the inputs, warm up and exit (times set-up)")
    return p.parse_args(argv)


def setup(args):
    lp = import_package()
    import workloads

    ops = workloads.make_round(lp, args.workload, args.seed)
    workloads.warm_up(lp, args.workload, ops)
    return lp, ops


def probe_setup_seconds(args) -> list:
    """Wall time of fresh interpreters doing the set-up of this run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Failed:
    """Stands for the output of an operation that raised."""

    def __init__(self, error: Exception):
        self.error = repr(error)


def run_op(op):
    try:
        return op.run()
    except Exception as e:  # a failed operation is counted, not fatal
        return Failed(e)


def check_outputs(ops, outputs, wrong: list, failed: list) -> None:
    """Append the reasons for wrong outputs and for raised operations."""
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Failed):
            failed.append(f"op {i} ({op.kind}) raised {out.error}")
            continue
        reason = op.check(out)
        if reason:
            wrong.append(f"op {i} ({op.kind}): {reason}")


def measure(ops, seconds: float, tracer=None):
    """Whole rounds until the timed phase reaches `seconds`.  Only the
    operations are timed; each round's outputs are checked between rounds,
    with the tracer paused."""
    latencies, wrong, failed = [], [], []
    first_outputs = None
    rounds, timed = 0, 0.0
    while True:
        outputs = []
        if tracer:
            tracer.recording = True
        for op in ops:
            t = time.perf_counter()
            out = run_op(op)
            latencies.append(time.perf_counter() - t)
            outputs.append(out)
        if tracer:
            tracer.recording = False
        timed += sum(latencies[-len(ops):])
        rounds += 1
        check_outputs(ops, outputs, wrong, failed)
        if first_outputs is None:
            first_outputs = outputs
        if timed >= seconds:
            return rounds, timed, latencies, first_outputs, wrong, failed


def main(argv) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args)
        return 0
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    tracer = None
    if args.trace:
        import_package()
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(os.path.join(ROOT, "BENCHMARK.json"))
        tracer.install()
    lp, ops = setup(args)
    setup_in_process = time.perf_counter() - T_START

    rounds, timed, latencies, first_outputs, wrong, failed = measure(ops, args.seconds, tracer)
    attempted = len(latencies)
    ops_per_s, latency_p50_ms = attempted / timed, 1e3 * statistics.median(latencies)

    import workloads

    gap_ops, gap_outputs = ops, first_outputs  # outputs repeat from round to round
    if args.workload in workloads.GAP_FROM_PANEL:
        gap_ops = workloads.make_round(lp, args.workload, 0, panel=True)
        gap_outputs = [run_op(op) for op in gap_ops]
        panel_failed = []
        check_outputs(gap_ops, gap_outputs, wrong, panel_failed)
        wrong += [f"panel {line}" for line in panel_failed]
    gaps = [g for g in (op.gap(out) for op, out in zip(gap_ops, gap_outputs)
                        if not isinstance(out, Failed)) if g is not None]
    failures = wrong + failed
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failed)}
    if tracer:
        result["metrics"] = tracer.per_op_metrics(attempted)
    else:
        setup_times = probe_setup_seconds(args)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": latency_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "bound_gap": {"value": statistics.fmean(gaps), "unit": "1"},
        }

    kinds, strata = {}, {}
    for i, op in enumerate(ops):
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        strata.setdefault(op.stratum, []).extend(latencies[i::len(ops)])
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": len(ops),
        "timed_s": timed, "setup_in_process_s": setup_in_process,
        "latency_p50_ms": latency_p50_ms, "ops_per_s": ops_per_s, "kinds_per_round": kinds,
        "ops_per_s_by_stratum": {k: len(v) / sum(v) for k, v in strata.items()},
        "time_share_by_stratum": {k: sum(v) / timed for k, v in strata.items()},
        "failures": failures[:20],
        "op_info": [op.info(out) for op, out in zip(ops, first_outputs)
                    if not isinstance(out, Failed)],
        "op_median_ms": [1e3 * statistics.median(latencies[i::len(ops)])
                         for i in range(len(ops))],
    }
    if not tracer:
        details["setup_probes_s"] = setup_times
    if tracer:
        details["absent"] = tracer.absent
        details["spans"] = {k: vars(v) for k, v in tracer.stats.items()}
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump({"result": result, "details": details}, f, indent=1)
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    if tracer and tracer.absent:
        print("absent traced names: " + ", ".join(tracer.absent), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
