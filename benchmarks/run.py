"""rsddl benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 benchmarks/run.py --workload mixture-train --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``mixture-train`` and ``scene-map``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
the traced ops.  Earlier lines give the environment, every metric by name
and unit, the tail percentile, and the accuracy scores.  Spans of a traced
run, the full result and the digests of every seed go under ``.bench_work/``.

The package is imported from ``src/`` of the checkout this file sits in; the
run fails without printing a result when it is not there.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: BLAS thread count changes results in the last
# digits, so runs are only comparable at one setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def _import_package():
    sys.path[:0] = [SRC, HERE]
    try:
        import rsddl
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import rsddl from {SRC}: {exc}")
    if not os.path.abspath(rsddl.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: rsddl was imported from {rsddl.__file__}, not from {SRC}")
    return rsddl


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _code_digest_and_lines() -> tuple[str, int]:
    """Digest of the package and benchmark sources, and the src/ line count."""
    h = hashlib.sha256()
    lines = 0
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name), "rb") as fh:
                    content = fh.read()
                h.update(name.encode() + b"\0" + content)
                if top == SRC:
                    lines += content.count(b"\n")
    return h.hexdigest()[:16], lines


def _environment(np, seed: int, code_digest: str, src_lines: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "code_digest": code_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mixture-train", "scene-map"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    import numpy as np

    import workloads as wl
    from spans import Tracer

    code_digest, src_lines = _code_digest_and_lines()
    env = _environment(np, args.seed, code_digest, src_lines)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    run = wl.Run(workload=args.workload, seed=args.seed, seconds=args.seconds, work=work,
                 state_key=f"{args.workload}:{args.seed}:{code_digest}",
                 tracer=Tracer() if args.trace else None)
    try:
        wl.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tail_ms, tail_pct, n_lat = wl.tail(run.samples.get("latency_ms", []))
    fit = run.fit or {}
    ops = run.samples
    e2e = {
        "setup_s": (wl.median(run.setup_s), "s"),
        "train_s": (wl.mean(ops.get("train_s", [])), "s"),
        "classify_samples_per_s": (wl.rate(ops.get("classify_samples_per_s", [])), "samples/s"),
        "pipeline_s": (wl.mean(ops.get("pipeline_s", [])), "s"),
        "latency_ms_mean": (wl.mean(ops.get("latency_ms", [])), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "final_objective": (fit.get("final_objective", 0.0), "objective"),
        "final_feas1": (fit.get("final_feas1", 0.0), "norm"),
        "final_feas2": (fit.get("final_feas2", 0.0), "norm"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    quality = run.quality or {}
    overhead = (wl.mean(run.traced_op_s) / wl.mean(run.untraced_op_s)
                if run.traced_op_s and run.untraced_op_s else 0.0)
    if args.trace:
        metrics, unmeasured = run.tracer.metrics(overhead)
        trace_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write(trace_path)
    else:
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}
        unmeasured = []

    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    detail = {"env": env, "result": result, "quality": quality, "unmeasured": unmeasured,
              "latency_tail": {"percentile": tail_pct, "samples": n_lat},
              "ops_ok": run.attempted - run.failed, "ridge_fallbacks": run.ridge_fallbacks,
              "tracing_overhead": overhead, "samples": run.samples, "setup_s": run.setup_s}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  latency_ms_mean and latency_ms_tail (p{tail_pct:.1f}) are over {n_lat} requests; "
          f"the other op timings are means over {len(ops.get('pipeline_s', []))} ops")
    print("quality " + json.dumps({k: round(v, 6) for k, v in quality.items()})
          + " (ratio, higher is better; informational, not gated)")
    if args.trace:
        print(f"tracing overhead (traced / untraced op wall time): {overhead:.4f}")
        if unmeasured:
            print("unmeasured (boundary function not found): " + ", ".join(unmeasured))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
