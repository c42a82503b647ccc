"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run
    One multisplit configuration; prints the profiler-style timeline.
sweep
    Methods x bucket counts table of simulated times (method_explorer).
sssp
    Footnote-1 SSSP bucketing comparison on one graph family.
sol
    Speed-of-light bounds for both device profiles.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.report import timeline_report, timeline_csv
from repro.analysis.speed_of_light import speed_of_light_gkeys
from repro.analysis.tables import render_table
from repro.multisplit import Method, multisplit, RangeBuckets
from repro.simt import Device, K40C, GTX750TI
from repro.workloads import make_workload

__all__ = ["main"]

_DEVICES = {"k40c": K40C, "gtx750ti": GTX750TI}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="GPU Multisplit (PPoPP 2016) reproduction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one multisplit configuration")
    run.add_argument("-n", type=int, default=1 << 20, help="number of keys")
    run.add_argument("-m", type=int, default=8, help="number of buckets")
    run.add_argument("--method", default="auto",
                     choices=[m.value for m in Method])
    run.add_argument("--device", default="k40c", choices=sorted(_DEVICES))
    run.add_argument("--distribution", default="uniform",
                     choices=["uniform", "binomial", "spike25", "identity"])
    run.add_argument("--key-value", action="store_true")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--csv", action="store_true",
                     help="emit the timeline as CSV instead of a table")
    run.add_argument("--gantt", action="store_true",
                     help="also draw an ASCII Gantt chart of the kernels")

    sweep = sub.add_parser("sweep", help="methods x bucket-count table")
    sweep.add_argument("-n", type=int, default=1 << 19)
    sweep.add_argument("--device", default="k40c", choices=sorted(_DEVICES))
    sweep.add_argument("--buckets", type=int, nargs="+",
                       default=[2, 4, 8, 16, 32, 64, 256])

    sssp = sub.add_parser("sssp", help="footnote-1 bucketing comparison")
    sssp.add_argument("--family", default="rmat",
                      choices=["rmat", "social", "gbf", "gnm"])
    sssp.add_argument("--scale", type=int, default=10,
                      help="log2 of the vertex count")
    sssp.add_argument("--seed", type=int, default=7)

    sub.add_parser("sol", help="speed-of-light bounds")

    serve = sub.add_parser(
        "serve", help="multisplit-as-a-service TCP endpoint",
        description="Run the line-JSON service (see docs/SERVICE.md) "
                    "until SIGINT/SIGTERM; drains gracefully on shutdown.")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8373,
                       help="TCP port; 0 picks an ephemeral port "
                            "(printed on the ready line)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescing window flushes at this many "
                            "requests, else on the event loop's next turn; "
                            "1 dispatches each request alone")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admitted-but-incomplete request cap (429 beyond)")
    serve.add_argument("--request-timeout-ms", type=float, default=30_000.0,
                       help="per-request deadline; 0 disables")
    serve.add_argument("--workers", type=int, default=None,
                       help="executor threads (default: cpu-scaled)")
    return p


def _cmd_run(args) -> int:
    w = make_workload(args.n, args.m, args.distribution, seed=args.seed)
    dev = Device(_DEVICES[args.device])
    res = multisplit(w.keys, w.spec, values=w.values if args.key_value else None,
                     method=args.method, device=dev)
    if args.csv:
        sys.stdout.write(timeline_csv(res.timeline))
    else:
        kind = "key-value" if args.key_value else "key-only"
        print(timeline_report(
            res.timeline,
            title=(f"{res.method} multisplit, n={args.n}, m={args.m}, {kind}, "
                   f"{args.distribution}, {dev.spec.name}")))
        print(f"\nthroughput: {res.throughput_gkeys():.2f} G keys/s "
              f"(simulated {res.simulated_ms:.4f} ms)")
        if args.gantt:
            from repro.simt.trace import ascii_gantt, stage_bars
            print()
            print(ascii_gantt(res.timeline))
            print()
            print(stage_bars(res.timeline))
    return 0


def _cmd_sweep(args) -> int:
    spec = _DEVICES[args.device]
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2**32, args.n, dtype=np.uint32)
    methods = [m.value for m in Method if m is not Method.AUTO]
    rows = []
    for method in methods:
        cells = [method]
        for m in args.buckets:
            try:
                res = multisplit(keys, RangeBuckets(m), method=method,
                                 device=Device(spec))
                cells.append(f"{res.simulated_ms:.3f}")
            except ValueError:
                cells.append("-")
        rows.append(cells)
    print(render_table(["method"] + [f"m={m}" for m in args.buckets], rows,
                       title=f"simulated ms, n={args.n}, {spec.name}"))
    return 0


def _cmd_sssp(args) -> int:
    from repro.sssp import FAMILIES, BUCKETINGS, delta_stepping, suggest_delta
    g = FAMILIES[args.family](args.scale, args.seed)
    delta = suggest_delta(g) / 4
    amortized = K40C.replace(kernel_launch_us=0.0)
    rows = []
    times = {}
    for bucketing in BUCKETINGS:
        dev = Device(amortized)
        _, stats = delta_stepping(g, 0, bucketing=bucketing, device=dev,
                                  delta=delta)
        times[bucketing] = stats["simulated_ms"]
        rows.append([bucketing, f"{stats['simulated_ms'] * 1e3:.1f}",
                     f"{stats['bucketing_ms'] / stats['simulated_ms']:.0%}",
                     stats["windows"], stats["relaxations"]])
    print(render_table(
        ["bucketing", "total us", "reorg share", "windows", "relaxations"],
        rows, title=f"SSSP on {args.family} (V={g.num_vertices}, E={g.num_edges})"))
    print(f"\nmultisplit speedup: {times['near_far'] / times['multisplit']:.2f}x "
          f"over near-far, {times['sort'] / times['multisplit']:.2f}x over sort")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_queue=args.max_queue,
        request_timeout_ms=args.request_timeout_ms, workers=args.workers)
    try:
        return asyncio.run(serve(config))
    except KeyboardInterrupt:  # pragma: no cover — signal-handler fallback
        return 0


def _cmd_sol(_args) -> int:
    rows = []
    for spec in (K40C, GTX750TI):
        rows.append([spec.name,
                     f"{speed_of_light_gkeys(spec):.1f}",
                     f"{speed_of_light_gkeys(spec, key_value=True):.1f}"])
    print(render_table(["device", "key-only Gkeys/s", "key-value Gpairs/s"],
                       rows, title="multisplit speed of light (Section 6.2.2)"))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return {"run": _cmd_run, "sweep": _cmd_sweep, "sssp": _cmd_sssp,
            "sol": _cmd_sol, "serve": _cmd_serve}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
