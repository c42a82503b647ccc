#!/usr/bin/env python
"""Normalized bench runner: one schema, committed baselines, a CI gate.

Wraps the repo's benchmark entry points in small, fast configurations
and emits one schema-validated ``BENCH_<name>.json`` record per bench
(see :mod:`repro.obs.schema`). Records are compared against the
committed ``benchmarks/baselines/`` directory with per-metric tolerance
bands: deterministic metrics (simulated milliseconds, audited sector
counts, arena hit counts) must match **exactly**; wall-clock metrics
fail only beyond ``--tolerance`` (default +25%).

Usage::

    python benchmarks/runner.py --list
    python benchmarks/runner.py                      # run all, emit records
    python benchmarks/runner.py engine --compare     # run + regression gate
    python benchmarks/runner.py --compare --no-run   # gate existing records
    python benchmarks/runner.py --update-baselines   # refresh baselines

``python -m repro bench ...`` forwards here. Exit codes: 0 pass,
1 regression, 2 schema error.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

_HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = _HERE.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import numpy as np  # noqa: E402  (sys.path bootstrap above)

from repro.obs import (  # noqa: E402
    DEFAULT_TOLERANCE,
    DEFAULT_WALL_FLOOR_MS,
    EXIT_SCHEMA,
    BenchSchemaError,
    collecting,
    compare_dirs,
    dump_record,
    make_record,
    render_report,
)

BASELINE_DIR = _HERE / "baselines"
OUT_DIR = _HERE / "out"

# small-n bench configs: fast enough for the CI bench-regress job while
# still exercising every layer the full benches touch
_N = int(os.environ.get("REPRO_BENCH_N", 1 << 16))


def bench_engine() -> dict:
    """Small-n version of benchmarks/bench_engine.py (emulate vs fast)."""
    import bench_engine

    config = {"n": _N, "m": 32, "repeats": 5}
    report = bench_engine.run(n=config["n"], m=config["m"], repeats=config["repeats"])
    # note: no speedup ratios here — they are higher-is-better, which the
    # lower-is-better tolerance bands would read backwards; derive them
    # from emulate_ms / fast_*_ms instead
    metrics = {
        "emulate_ms": report["emulate_ms"],
        "fast_cold_ms": report["fast_cold_ms"],
        "fast_warm_ms": report["fast_warm_ms"],
        "workspace_hits": report["workspace_hits"],
        "workspace_nbytes": report["workspace_nbytes"],
    }
    config["method"] = report["method"]
    return {
        "config": config,
        "metrics": metrics,
        "exact": ["workspace_hits", "workspace_nbytes"],
    }


def bench_sweep() -> dict:
    """Deterministic simulated-time + counter grid over the emulator.

    Everything here is computed, not measured — simulated milliseconds
    and audited sector counts are bit-reproducible on any machine, so
    every metric is exact: any drift means an algorithm or cost-model
    change, which must be an intentional baseline refresh.
    """
    from repro.multisplit import RangeBuckets, multisplit

    config = {"n": 4096, "buckets": "8,32", "methods": "warp,block,reduced_bit"}
    rng = np.random.default_rng(2016)
    keys = rng.integers(0, 2**32, config["n"], dtype=np.uint32)
    metrics = {}
    for method in config["methods"].split(","):
        for m in (8, 32):
            if method == "warp" and m > 32:
                continue
            res = multisplit(keys, RangeBuckets(m), method=method)
            tag = f"{method}_m{m}"
            recs = res.timeline.records
            reads = sum(r.counters.global_read_sectors for r in recs)
            writes = sum(r.counters.global_write_sectors for r in recs)
            instrs = sum(r.counters.warp_instructions for r in recs)
            metrics[f"simulated_ms.{tag}"] = round(res.simulated_ms, 9)
            metrics[f"read_sectors.{tag}"] = int(reads)
            metrics[f"write_sectors.{tag}"] = int(writes)
            metrics[f"warp_instructions.{tag}"] = int(instrs)
    return {"config": config, "metrics": metrics, "exact": list(metrics)}


def bench_workspace() -> dict:
    """Arena reuse accounting for a fixed fast-engine call sequence."""
    from repro.engine import Workspace
    from repro.multisplit import RangeBuckets, multisplit
    from repro.obs import get_registry

    config = {"n": _N, "m": 16, "calls": 6}
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**32, config["n"], dtype=np.uint32)
    values = np.arange(config["n"], dtype=np.uint32)
    ws = Workspace()
    for _ in range(config["calls"]):
        multisplit(
            keys,
            RangeBuckets(config["m"]),
            values=values,
            method="block",
            engine="fast",
            workspace=ws,
        )
    reg = get_registry()
    flat = reg.as_flat()
    hits = [v for k, v in flat.items() if k.startswith("workspace.hits")]
    hit_total = sum(hits) if reg.enabled else ws.hits
    metrics = {
        "hits": ws.hits,
        "misses": ws.misses,
        "nbytes": ws.nbytes,
        "registry_hits": hit_total,
    }
    return {"config": config, "metrics": metrics, "exact": list(metrics)}


def bench_batch() -> dict:
    """Batched dispatch: fan-out wall time plus deterministic checksums."""
    from repro.multisplit import RangeBuckets, multisplit_batch

    config = {"items": 8, "n_per_item": max(_N // 4, 1 << 12), "m": 8}
    rng = np.random.default_rng(11)
    n_item = config["n_per_item"]
    items = config["items"]
    batch = [rng.integers(0, 2**32, n_item, dtype=np.uint32) for _ in range(items)]
    t0 = time.perf_counter()
    results = multisplit_batch(batch, RangeBuckets(config["m"]))
    batch_ms = (time.perf_counter() - t0) * 1e3
    checksum = int(sum(int(r.bucket_starts.sum()) for r in results))
    metrics = {
        "batch_ms": round(batch_ms, 3),
        "items": len(results),
        "starts_checksum": checksum,
    }
    return {
        "config": config,
        "metrics": metrics,
        "exact": ["items", "starts_checksum"],
    }


def bench_sharded() -> dict:
    """Small-n version of benchmarks/bench_sharded.py (fast vs sharded)."""
    import bench_sharded

    config = {"n": max(_N * 4, 1 << 18), "m": 32, "repeats": 3}
    report = bench_sharded.run(n=config["n"], m=config["m"], repeats=config["repeats"])
    # speedup ratios are higher-is-better, which the lower-is-better
    # tolerance bands would read backwards; derive them from the
    # recorded milliseconds instead
    metrics = {
        "fast_warm_ms": report["fast_warm_ms"],
        "sharded_w1_ms": report["sharded_w1_ms"],
        "sharded_w4_ms": report["sharded_w4_ms"],
        "drift": report["drift"],
        "shards": report["shards"],
        "starts_checksum": report["starts_checksum"],
    }
    config["method"] = report["method"]
    return {
        "config": config,
        "metrics": metrics,
        "exact": ["drift", "shards", "starts_checksum"],
    }


def bench_backends() -> dict:
    """Kernel-backend grid (numpy/numba) from bench_backends.py.

    Runs at the full paper scale (n = 2^22, m in {32, 256}, workers in
    {1, 4}) per the backend acceptance spec; the committed baseline
    holds only the metrics recordable on the baseline host, so cells
    that appear where more backends are available (e.g. numba in the
    compiled-matrix CI job) gate as "new" instead of failing.
    """
    import bench_backends

    config = {"n": bench_backends.N, "buckets": "32,256",
              "workers": "1,4", "repeats": 3}
    report = bench_backends.run(repeats=config["repeats"])
    metrics = {"drift": report["drift"]}
    exact = ["drift"]
    for m in report["buckets"]:
        key = f"starts_checksum_m{m}"
        metrics[key] = report[key]
        exact.append(key)
    # speedup ratios are higher-is-better, which the lower-is-better
    # tolerance bands would read backwards; keep the raw milliseconds
    for key, value in report.items():
        if key.endswith("_ms"):
            metrics[key] = value
    return {"config": config, "metrics": metrics, "exact": exact}


def bench_sort_family() -> dict:
    """Multisplit-derived sorts (bench_sort_family.py) at paper scale.

    Runs the full n = 2^22 grid so the committed baseline carries the
    acceptance headline (fast_radix_sort >= 5x over the emulated
    radix_sort on full 32-bit keys). Speedup ratios are higher-is-
    better, which the lower-is-better tolerance bands would read
    backwards, so the record keeps the raw milliseconds and the gate
    pins correctness via drift/checksums/group counts.
    """
    import bench_sort_family

    config = {
        "n": bench_sort_family.N,
        "reduced_ms": "32,256",
        "repeats": 3,
    }
    report = bench_sort_family.run(repeats=config["repeats"])
    metrics = {"drift": report["drift"]}
    exact = ["drift"]
    for key, value in report.items():
        if key.endswith("_checksum") or "_checksum_" in key or key.endswith("_groups"):
            metrics[key] = value
            exact.append(key)
        elif key.endswith("_ms") and isinstance(value, float):
            metrics[key] = value
    return {"config": config, "metrics": metrics, "exact": exact}


def bench_service() -> dict:
    """Small version of benchmarks/bench_service.py (coalesced vs naive).

    Speedup ratios are higher-is-better, which the lower-is-better
    tolerance bands would read backwards; the record keeps the raw
    milliseconds and pins correctness via drift/checksum/counts.
    """
    import bench_service

    config = {
        "requests": 32,
        "n_per_request": 256,
        "m": 16,
        "rounds": 3,
        "workers": 2,
    }
    report = bench_service.run(
        requests=config["requests"],
        n=config["n_per_request"],
        m=config["m"],
        rounds=config["rounds"],
        workers=config["workers"],
    )
    metrics = {
        "direct_ms": report["direct_ms"],
        "coalesced_ms": report["coalesced_ms"],
        "naive_ms": report["naive_ms"],
        "drift": report["drift"],
        "starts_checksum": report["starts_checksum"],
        "latency_count": report["latency_count"],
    }
    return {
        "config": config,
        "metrics": metrics,
        "exact": ["drift", "starts_checksum", "latency_count"],
    }


def bench_stream() -> dict:
    """Small-n version of benchmarks/bench_stream.py (sharded vs stream).

    Shrinks both n and the chunk budget so the out-of-core path still
    crosses several chunk boundaries at runner scale. Speedup ratios
    are higher-is-better, which the lower-is-better tolerance bands
    would read backwards; the record keeps the raw milliseconds and
    pins correctness via drift/checksum/chunk counts. The peak-arena
    bound itself is gated at full scale by bench_stream.py and the CI
    stream-bounded-memory job; here the exact chunk/shard counts pin
    the chunking geometry instead.
    """
    import bench_stream

    config = {"n": 1 << 20, "m": 32, "pairs": 3, "chunk_bytes": 1 << 20}
    report = bench_stream.run(
        n=config["n"],
        m=config["m"],
        pairs=config["pairs"],
        chunk_bytes=config["chunk_bytes"],
    )
    peak_under_dataset = int(report["peak_arena_nbytes"] < report["dataset_nbytes"])
    metrics = {
        "sharded_warm_ms": report["sharded_warm_ms"],
        "stream_warm_ms": report["stream_warm_ms"],
        "memcpy_ms": report["memcpy_ms"],
        "drift": report["drift"],
        "chunks": report["chunks"],
        "shards": report["shards"],
        "starts_checksum": report["starts_checksum"],
        "peak_under_dataset": peak_under_dataset,
    }
    config["method"] = report["method"]
    return {
        "config": config,
        "metrics": metrics,
        "exact": ["drift", "chunks", "shards", "starts_checksum", "peak_under_dataset"],
    }


def bench_skew() -> dict:
    """Sampled-splitter skew gate (bench_skew.py) at full n = 2^22.

    Everything gated here is seeded-deterministic — skew ratios, the
    recursion resplit count, drift vs the stable oracle, and the
    boundary checksum are exact; only the wall-clock build/split times
    use the tolerance band.
    """
    import bench_skew

    config = {"n": bench_skew.N, "m": bench_skew.M,
              "oversample": bench_skew.OVERSAMPLE, "repeats": 3}
    report = bench_skew.run(repeats=config["repeats"])
    metrics = {
        "range_skew": report["range_skew"],
        "splitter_skew": report["splitter_skew"],
        "resplits": report["resplits"],
        "drift": report["drift"],
        "starts_checksum": report["starts_checksum"],
        "sample_ms": report["sample_ms"],
        "split_ms": report["split_ms"],
        # the acceptance gates themselves, recorded as exact booleans so
        # a baseline diff is a loud CI failure, not a tolerance judgment
        "range_skew_over_50": int(report["range_skew"] > 50.0),
        "splitter_skew_under_2x": int(report["splitter_skew"] <= 2.0),
    }
    return {
        "config": config,
        "metrics": metrics,
        "exact": ["range_skew", "splitter_skew", "resplits", "drift",
                  "starts_checksum", "range_skew_over_50",
                  "splitter_skew_under_2x"],
    }


BENCHES = {
    "engine": bench_engine,
    "sweep": bench_sweep,
    "workspace": bench_workspace,
    "batch": bench_batch,
    "sharded": bench_sharded,
    "stream": bench_stream,
    "backends": bench_backends,
    "sort_family": bench_sort_family,
    "service": bench_service,
    "skew": bench_skew,
}


def run_bench(name: str) -> dict:
    """Run one bench under an enabled metrics registry; return its record."""
    fn = BENCHES[name]
    t0 = time.perf_counter()
    with collecting():
        out = fn()
    wall_ms = (time.perf_counter() - t0) * 1e3
    return make_record(
        name,
        out["config"],
        out["metrics"],
        wall_ms,
        exact=out.get("exact", ()),
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro bench",
        description="normalized bench runner + baseline regression gate",
    )
    p.add_argument(
        "names",
        nargs="*",
        metavar="BENCH",
        help=f"benches to run (default: all of {', '.join(BENCHES)})",
    )
    p.add_argument("--list", action="store_true", help="list benches and exit")
    p.add_argument(
        "--no-run",
        action="store_true",
        help="skip running; operate on existing records",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="diff records against the committed baselines",
    )
    p.add_argument(
        "--update-baselines",
        action="store_true",
        help="write current records into the baseline directory",
    )
    p.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=OUT_DIR,
        help="where BENCH_<name>.json records are written",
    )
    p.add_argument("--baseline-dir", type=pathlib.Path, default=BASELINE_DIR)
    p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative band for wall-clock metrics (default 0.25)",
    )
    p.add_argument(
        "--wall-floor-ms",
        type=float,
        default=DEFAULT_WALL_FLOOR_MS,
        help="absolute wall diff below which changes pass",
    )
    p.add_argument(
        "--report",
        type=pathlib.Path,
        help="also write the comparison report to this file",
    )
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list:
        for name, fn in BENCHES.items():
            print(f"{name:<12} {(fn.__doc__ or '').strip().splitlines()[0]}")
        return 0
    names = args.names or list(BENCHES)
    if not args.no_run:
        unknown = sorted(set(names) - set(BENCHES))
        if unknown:
            msg = (
                f"unknown bench(es): {', '.join(unknown)} "
                f"(have: {', '.join(BENCHES)})"
            )
            print(msg, file=sys.stderr)
            return EXIT_SCHEMA

    if not args.no_run:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            print(f"[bench] running {name} ...", flush=True)
            try:
                record = run_bench(name)
            except BenchSchemaError as e:
                print(f"[bench] {name}: invalid record: {e}", file=sys.stderr)
                return EXIT_SCHEMA
            path = dump_record(record, args.out_dir / f"BENCH_{name}.json")
            msg = (
                f"[bench] {name}: wall {record['wall_ms']:.1f} ms, "
                f"{len(record['metrics'])} metrics -> {path}"
            )
            print(msg)

    if args.update_baselines:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            src = args.out_dir / f"BENCH_{name}.json"
            dst = args.baseline_dir / f"BENCH_{name}.json"
            dst.write_text(src.read_text())
            print(f"[bench] baseline refreshed: {dst}")
        return 0

    if args.compare:
        # with --no-run and no explicit names, gate whatever baselines
        # exist rather than assuming the built-in bench list
        compare_names = args.names or (None if args.no_run else names)
        report = compare_dirs(
            args.out_dir,
            args.baseline_dir,
            compare_names,
            tolerance=args.tolerance,
            wall_floor_ms=args.wall_floor_ms,
        )
        text = render_report(report, tolerance=args.tolerance)
        print(text)
        if args.report:
            args.report.write_text(text + "\n")
            print(f"[bench] report written to {args.report}")
        return report.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
