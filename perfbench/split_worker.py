"""Child process for the split workloads; one role per process.

Roles (each prints one JSON line on stdout; an op's time is reported as
``[wall seconds, CPU seconds, stolen share]``, see ``host.unstolen``):

* ``oracle``  -- stable-oracle digest of the op's outputs
  (``reference_multisplit``). Runs in its own process so its argsort
  scratch never counts toward the measured process's peak RSS.
* ``cold``    -- one cold start: import of ``repro`` plus the first op.
* ``measure`` -- a closed loop of ops, one caller, for ``--seconds``;
  every op's outputs are digested outside the timed region and compared
  with the oracle digest. With ``--trace 1`` untraced and traced ops
  alternate, then a few ops run at ``max_workers=1``.

Usage: python3 perfbench/split_worker.py ROLE --workload W --seed N
       --work DIR [--seconds S --trace 0|1 --oracle HEX --trace-out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from host import cpu_steal, steal_share, vm_hwm_mib  # noqa: E402

_now = time.perf_counter
_cpu = time.process_time
# the loop keeps going past --seconds until it has this many timed ops,
# so a median always exists
MIN_OPS = 3
# single-worker ops for engine.speedup_1w in the traced run
ONE_WORKER_OPS = 2


def load_inputs(workload: str, seed: int, work: str):
    import workloads as wl

    if workload == "split_uniform":
        return wl.uniform_inputs(seed)
    return wl.skewed_inputs(work)


def run_op(workload, keys, values, *, tracer=None, op_id=None, **kwargs):
    """One op as a user would call it; returns (result, spec, seconds).
    ``kwargs`` (``backend``, ``max_workers``) go to ``multisplit``."""
    from repro import BucketSpec, RangeBuckets, multisplit

    import workloads as wl

    kwargs.update(values=values, engine="auto")

    def body():
        if workload == "split_uniform":
            spec = RangeBuckets(wl.UNIFORM_M)
        elif tracer is None:
            spec = BucketSpec.from_sample(keys, wl.SKEWED_M)
        else:
            args = (keys, wl.SKEWED_M)
            spec = tracer.call(
                "bucketing.from_sample", BucketSpec.from_sample, args, {}, n=keys.size
            )
        if tracer is None:
            return multisplit(keys, spec, **kwargs), spec
        tracer.wrap_spec(spec)
        res = tracer.call(
            "engine.multisplit",
            multisplit,
            (keys, spec),
            kwargs,
            n=keys.size,
            export=True,
        )
        return res, spec

    t0 = _now()
    if tracer is None:
        res, spec = body()
    else:
        res, spec = tracer.call("bench.op", body, (), {}, n=keys.size, op=op_id)
    return res, spec, _now() - t0


def digest(keys, values, starts, splitters) -> str:
    import numpy as np

    h = hashlib.sha1()
    for arr in (keys, values, np.asarray(starts, dtype=np.int64)):
        h.update(np.ascontiguousarray(arr).view(np.uint8))
    if splitters is not None:
        h.update(np.ascontiguousarray(splitters).view(np.uint8))
    return h.hexdigest()


def result_digest(res, spec) -> str:
    splitters = getattr(spec, "splitters", None)
    return digest(res.keys, res.values, res.bucket_starts, splitters)


def bucket_ratio(starts) -> float:
    """Largest bucket over the mean bucket size."""
    import numpy as np

    sizes = np.diff(np.asarray(starts, dtype=np.int64))
    return float(sizes.max() / sizes.mean())


def role_oracle(a) -> dict:
    from repro import BucketSpec, RangeBuckets
    from repro.multisplit.validate import reference_multisplit

    import workloads as wl

    keys, values = load_inputs(a.workload, a.seed, a.work)
    if a.workload == "split_uniform":
        spec = RangeBuckets(wl.UNIFORM_M)
    else:
        spec = BucketSpec.from_sample(keys, wl.SKEWED_M)
    ref_keys, ref_values, starts = reference_multisplit(keys, spec, values)
    splitters = getattr(spec, "splitters", None)
    return {"digest": digest(ref_keys, ref_values, starts, splitters)}


def role_cold(a) -> dict:
    steal0, cpu0, t0 = cpu_steal(), _cpu(), _now()
    import repro  # noqa: F401  (the import is what is timed)

    import_s, import_cpu = _now() - t0, _cpu() - cpu0
    steal1 = cpu_steal()
    keys, values = load_inputs(a.workload, a.seed, a.work)
    steal2, cpu2 = cpu_steal(), _cpu()
    res, spec, op_s = run_op(a.workload, keys, values)
    op_cpu = _cpu() - cpu2
    steal3 = cpu_steal()
    # stolen share over the timed parts only (input loading excluded)
    stolen = (steal1[0] - steal0[0]) + (steal3[0] - steal2[0])
    wanted = (steal1[1] - steal0[1]) + (steal3[1] - steal2[1])
    return {
        "time": [import_s + op_s, import_cpu + op_cpu, stolen / max(wanted, 1)],
        "ok": result_digest(res, spec) == a.oracle,
    }


def role_measure(a) -> dict:
    keys, values = load_inputs(a.workload, a.seed, a.work)
    out = {"n": int(keys.size), "attempted": 0, "errors": 0, "wrong": 0}

    def checked(**kw):
        """One op, checked; returns [wall, cpu, steal] or None."""
        out["attempted"] += 1
        steal0, cpu0 = cpu_steal(), _cpu()
        try:
            res, spec, dt = run_op(a.workload, keys, values, **kw)
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            out["errors"] += 1
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        op = [dt, _cpu() - cpu0, steal_share(steal0, cpu_steal())]
        if result_digest(res, spec) != a.oracle:
            out["wrong"] += 1
            return None
        if "max_workers" not in kw:
            out["workers"] = res.extra.get("workers")
            out["engine"] = res.extra.get("engine")
            out["max_bucket_ratio"] = bucket_ratio(res.bucket_starts)
        return op

    checked()  # warm-up: lazy imports, first-touch of the inputs
    if not a.trace:
        times = []
        deadline = _now() + a.seconds
        while _now() < deadline or len(times) < MIN_OPS:
            op = checked()
            if op is not None:
                times.append(op)
            elif out["errors"] + out["wrong"] > MIN_OPS:
                break
        out["times"] = times
    else:
        out.update(traced_loop(a, keys, values, checked))
    out["maxrss_mib"] = vm_hwm_mib("self")
    return out


def traced_loop(a, keys, values, checked) -> dict:
    from tracing import Tracer, tracing_backend

    tracer = Tracer()
    backend = tracing_backend(tracer)
    plain, traced = [], []
    deadline = _now() + a.seconds
    op_id = 0
    while _now() < deadline or min(len(plain), len(traced)) < MIN_OPS:
        op = checked()
        if op is not None:
            plain.append(op)
        op_id += 1
        op = checked(tracer=tracer, backend=backend, op_id=op_id)
        if op is not None:
            traced.append(op)
        if op_id > MIN_OPS and not traced:
            break  # every traced op fails; the failure count reports it
    one_worker = [checked(max_workers=1) for _ in range(ONE_WORKER_OPS)]
    tracer.dump(a.trace_out, workload=a.workload)
    return {
        "times": plain,
        "traced": traced,
        "one_worker": [op for op in one_worker if op is not None],
        "layers": op_layers(tracer.spans, keys.size),
    }


def op_layers(spans, n: int) -> dict:
    """Per-op layer quantities from the traced ops, as medians over ops."""
    from tracing import union_length

    by_op: dict = {}
    for sp in spans:
        by_op.setdefault(sp[6], []).append(sp)
    rows = []
    for op, ss in by_op.items():
        if op is None:
            continue
        ms = [sp for sp in ss if sp[1] == "engine.multisplit"][0]
        fs = [sp for sp in ss if sp[1] == "bucketing.from_sample"]
        fs_ids = {sp[0] for sp in fs}
        # evaluations inside the engine call (from_sample builds its own
        # unwrapped spec, so none of its evaluations land here)
        ev = [sp for sp in ss if sp[1] == "bucketing.eval" and sp[4] not in fs_ids]
        pre = [sp for sp in ss if sp[1] in ("engine.prescan", "engine.hist")]
        sca = [sp for sp in ss if sp[1] == "engine.scatter"]
        kernels = ev + pre + sca
        wall = ms[3] - ms[2]
        keys_eval = sum(sp[7] for sp in ev)
        eval_busy = sum(sp[3] - sp[2] for sp in ev)
        row = {
            "from_sample_s": sum(sp[3] - sp[2] for sp in fs),
            "multisplit_s": wall,
            "eval_busy_s": eval_busy,
            "eval_ns_per_key": eval_busy * 1e9 / max(keys_eval, 1),
            "evals_per_key": keys_eval / n,
            "prescan_busy_s": sum(sp[3] - sp[2] for sp in pre),
            "prescan_wall_s": union_length((sp[2], sp[3]) for sp in pre),
            "scatter_busy_s": sum(sp[3] - sp[2] for sp in sca),
            "scatter_wall_s": union_length((sp[2], sp[3]) for sp in sca),
            "other_s": wall - union_length((sp[2], sp[3]) for sp in kernels),
            "busy_s": sum(sp[3] - sp[2] for sp in kernels),
            "kernel_calls": len(pre) + len(sca),
        }
        rows.append(row)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("oracle", "cold", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--oracle", default="")
    p.add_argument("--trace-out", default="")
    a = p.parse_args(argv)
    roles = {"oracle": role_oracle, "cold": role_cold, "measure": role_measure}
    print(json.dumps(roles[a.role](a)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
