#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, with medians, quartiles and wins.

Runs ``benchmarks/run.py`` (``--trace 0``) of a parent checkout and of a
change checkout, one run at a time, with the same seeds and ``--seconds`` on
both sides.  Pair i runs the parent first when i is even and the change first
when i is odd.  For each workload and end-to-end metric it then prints each
side's median and quartiles, the change of the median, the parent's quartile
distance, the change's wins out of the pairs (ties count for neither) and
a verdict, then each side's failed ops and ``src_lines`` (the ``src/`` line
count of the benchmark's ``env`` line).  From each run's ``quality`` line it
also prints each side's median ``oa_l0`` and ``oa_l1`` and on how many seeds
each differs between the sides, so a change that moves models shows its
accuracy effect from the same pairs.  With ``--layers NAMES`` (comma-separated
per-layer metrics of ``BENCHMARK.json``), each untraced pair is followed by
one ``--trace 1`` run per side, in the pair's order, and each side's median
of the named metrics over those runs is printed with the change's wins, so a
change can show in which layer its saving sits.  Whether lower or higher is
better, and each metric's bound, are read from the change's
``BENCHMARK.json``.  The verdict is the first that holds of:

* ``gain``: the change won at least 9 of 10 pairs, and its median is better
  than the parent's by more than the parent's IQR (interquartile range);
* ``worse``: the change's median is worse than the parent's by more than the
  bound, a fraction of the parent's median;
* ``unresolved``: the parent's IQR is more than the bound times its median,
  and not every change run beats every parent run;
* ``within bound``.

Example, from the change's checkout::

    python scripts/ab_pairs.py --parent ../parent --change . \\
        --workload mixture-train --seeds 0-9 --seconds 20 --log pairs.jsonl \\
        --layers dataio.extract_s,cli.features_s

``--log`` appends one JSON line per run: side, workload, seed, trace flag,
the benchmark's result line and its quality scores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """``"0-9"``, ``"3,5,8"`` or a mix such as ``"0-2,7"``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_result(stdout: str) -> dict:
    """The JSON result line of one ``benchmarks/run.py`` run: its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def parse_src_lines(stdout: str) -> int:
    """The ``src_lines`` of the ``env`` line of one ``benchmarks/run.py`` run."""
    for line in stdout.splitlines():
        if line.startswith("env "):
            return json.loads(line[len("env "):])["src_lines"]
    raise ValueError("the benchmark printed no env line")


def parse_quality(stdout: str) -> dict:
    """The scores of the ``quality`` line of one ``benchmarks/run.py`` run."""
    for line in stdout.splitlines():
        if line.startswith("quality "):
            return json.JSONDecoder().raw_decode(line[len("quality "):])[0]
    raise ValueError("the benchmark printed no quality line")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, better: str, bound: float) -> str:
    """The verdict on one metric's paired runs (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    (p1, p2, p3), (_, c2, _) = quartiles(parent), quartiles(change)
    gain = sign * (c2 - p2)  # positive when the change's median is better
    if 10 * wins >= 9 * len(parent) and gain > p3 - p1:
        return "gain"
    if -gain > bound * abs(p2):
        return "worse"
    every_run = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound * abs(p2) and not every_run:
        return "unresolved"
    return "within bound"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str], bounds: dict[str, float]) -> list[dict]:
    """One row per metric of ``better`` (name -> "lower" or "higher") over the
    (parent result, change result) pairs of one workload; ``bounds`` gives
    each metric's bound."""
    rows = []
    for name, direction in better.items():
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
               if name in p["metrics"] and name in c["metrics"]]
        if not got:
            continue
        parent, change = [p for p, _ in got], [c for _, c in got]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in got)
        ties = sum(c == p for p, c in got)
        p_q, c_q = quartiles(parent), quartiles(change)
        rows.append({
            "metric": name, "better": direction, "pairs": len(got), "wins": wins, "ties": ties,
            "parent": p_q, "change": c_q, "parent_iqr": p_q[2] - p_q[0],
            "delta": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else float("nan"),
            "verdict": verdict(parent, change, wins, direction, bounds[name]),
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"{workload}: median [quartiles], parent -> change; change of the median; parent IQR; wins; verdict"]
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        out.append(
            f"  {r['metric']:24s} {p2:.6g} [{p1:.6g}, {p3:.6g}] -> {c2:.6g} [{c1:.6g}, {c3:.6g}]"
            f"  {100 * r['delta']:+.1f}%  IQR {r['parent_iqr']:.4g}"
            f"  {r['wins']}/{r['pairs']} won ({r['better']} is better, {r['ties']} tied)  {r['verdict']}"
        )
    return "\n".join(out)


def layer_directions(spec: dict, names: list[str]) -> dict[str, str]:
    """Name -> "lower" or "higher" of each named per-layer metric of ``spec``
    (a parsed ``BENCHMARK.json``); a ValueError names those it lacks."""
    known = {m["name"]: m["better"] for m in spec["per_layer"]}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown per-layer metric(s): {', '.join(unknown)}")
    return {name: known[name] for name in names}


def format_layers(workload: str, pairs: list[tuple[dict, dict]], better: dict[str, str]) -> str:
    """Each side's median of the per-layer metrics of ``better`` over the
    traced (parent result, change result) pairs of one workload, and the
    change's wins."""
    out = [f"{workload} per layer, one traced run per side and pair: median, parent -> change; "
           "change of the median; wins"]
    for r in summarize(pairs, better, dict.fromkeys(better, math.inf)):
        out.append(
            f"  {r['metric']:24s} {r['parent'][1]:.6g} -> {r['change'][1]:.6g}  {100 * r['delta']:+.1f}%"
            f"  {r['wins']}/{r['pairs']} won ({r['better']} is better, {r['ties']} tied)"
        )
    return "\n".join(out)


def format_quality(qualities: list[tuple[dict, dict]]) -> str:
    """Each side's median accuracy over the (parent, change) ``quality``
    scores of one workload's seeds, and the seeds where it differs."""
    out = []
    for name in ("oa_l0", "oa_l1"):
        got = [(p[name], c[name]) for p, c in qualities if name in p and name in c]
        if got:
            parent, change = (statistics.median(side) for side in zip(*got))
            differ = sum(p != c for p, c in got)
            out.append(f"  {name}: median {parent:.6g} -> {change:.6g}; differs on {differ} of {len(got)} seeds")
    return "\n".join(out)


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, int, dict]:
    """The result line, the ``src_lines`` and the quality scores of one
    benchmark run."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return parse_result(proc.stdout), parse_src_lines(proc.stdout), parse_quality(proc.stdout)


def log(path: str | None, side: str, workload: str, seed: int, trace: int, result: dict, quality: dict) -> None:
    """Append one run's JSON line to ``path``, when given."""
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"side": side, "workload": workload, "seed": seed, "trace": trace,
                                 "result": result, "quality": quality}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "0-9" or "3,5,8"')
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--log", help="append one JSON line per run to this file")
    parser.add_argument("--layers", type=lambda text: text.split(","), default=[],
                        help="comma-separated per-layer metrics to compare from one traced run per side and pair")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        layers = layer_directions(spec, args.layers)
    except ValueError as exc:
        parser.error(str(exc))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        pairs, traced, qualities, counts = [], [], [], {side: [0, 0, set()] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got, quality = {}, {}
            for side in order:
                got[side], src_lines, quality[side] = run_once(sides[side], workload, seed, args.seconds)
                counts[side][0] += got[side]["attempted"]
                counts[side][1] += got[side]["failed"]
                counts[side][2].add(src_lines)
                print(f"{workload} seed {seed} {side}: train_s "
                      f"{got[side]['metrics'].get('train_s', {}).get('value', float('nan')):.4g}",
                      file=sys.stderr, flush=True)
                log(args.log, side, workload, seed, 0, got[side], quality[side])
            pairs.append((got["parent"], got["change"]))
            qualities.append((quality["parent"], quality["change"]))
            if layers:
                for side in order:
                    got[side], _, quality[side] = run_once(sides[side], workload, seed, args.seconds, trace=1)
                    log(args.log, side, workload, seed, 1, got[side], quality[side])
                traced.append((got["parent"], got["change"]))
        print(format_rows(workload, summarize(pairs, better, bounds)))
        print(format_quality(qualities))
        if layers:
            print(format_layers(workload, traced, layers))
        for side, (attempted, failed, src_lines) in counts.items():
            print(f"  {side}: {failed} of {attempted} ops failed; src_lines "
                  + ", ".join(map(str, sorted(src_lines))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
