"""The benchmark workloads and the measuring loop they share.

Each workload sets up its inputs from the seed (several times, so set-up time
is a median), runs one untimed warm-up op, then repeats its op until the run
length is used up.  Every op is checked: one prediction per sample with a
label in 1..C, a model file that loads and saves again byte for byte, and
model and label digests equal to those of every other op of the same seed,
in this run and in earlier runs of the same code in this checkout.  On the
mixture, accuracy must also clear a floor.  An op that raises or fails a
check counts as failed and is left out of the timings.

In a traced run the ops alternate between untraced and traced; the traced
ones give the per-layer numbers, and the ratio of their mean op times is
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

import rsddl.cli
from rsddl import (
    Architecture,
    DropMode,
    TrainConfig,
    joint_train,
    load_model,
    make_dataset,
    predict_batch,
    save_model,
    split_per_class,
)
from rsddl.dataio import HsiCube, load_labels, load_matrix_csv, save_cube, save_labels, save_matrix_csv
from rsddl.metrics import confusion_matrix, kappa, overall_accuracy
from rsddl.numerics import NumericsWarning, Rng

import data

# Set-up is repeated at least SETUP_MIN_REPEATS times and until SETUP_MIN_S
# seconds are spent or SETUP_MAX_REPEATS are made.  Repeats of a millisecond
# set-up that span a second or more also span the machine's sub-second swings
# in speed; with at most 50 repeats (60 ms on the mixture), the per-run
# medians of one ten-seed set ranged from 0.81 to 1.45 ms.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 1000, 3.0


class CheckFailed(Exception):
    """An op produced output that fails the benchmark's correctness checks."""


@dataclass
class Run:
    """State of one benchmark run: op counts, timing samples, digests."""

    workload: str
    seed: int
    seconds: float
    work: str
    state_key: str
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    ridge_fallbacks: int = 0
    samples: dict = field(default_factory=dict)
    traced_op_s: list = field(default_factory=list)
    untraced_op_s: list = field(default_factory=list)
    digests: dict | None = None
    quality: dict | None = None
    fit: dict | None = None
    setup_s: list = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_requests(self, latency_ms: list) -> None:
        """Record an op's request latencies."""
        self.samples.setdefault("latency_ms", []).extend(latency_ms)

    def check_digests(self, digests: dict) -> None:
        """Digests must match the first op of this run and earlier runs of
        the same seed and code (recorded under the checkout's work dir)."""
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise CheckFailed(f"digests changed between ops: {self.digests} -> {digests}")
        path = os.path.join(os.path.dirname(self.work), "digests.json")
        try:
            with open(path, encoding="utf-8") as fh:
                known = json.load(fh)
        except (OSError, ValueError):
            known = {}
        if self.state_key in known:
            if known[self.state_key] != digests:
                raise CheckFailed(f"digests differ from an earlier run of this seed: "
                                  f"{known[self.state_key]} -> {digests}")
            return
        known[self.state_key] = digests
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def check_predictions(labels: np.ndarray, n_samples: int, n_classes: int) -> None:
    if labels.shape != (n_samples,):
        raise CheckFailed(f"{labels.size} predictions for {n_samples} samples")
    if labels.min() < 1 or labels.max() > n_classes:
        raise CheckFailed(f"predicted labels outside 1..{n_classes}")


def model_round_trip(path: str) -> str:
    """Load a saved model, save it again, require identical bytes; return
    the file's digest."""
    with open(path, "rb") as fh:
        first = fh.read()
    again = path + ".again"
    save_model(load_model(path), again)
    with open(again, "rb") as fh:
        second = fh.read()
    os.remove(again)
    if first != second:
        raise CheckFailed("model file changed after load and save")
    return _sha(first)


def scores(truth: np.ndarray, pred_l0: np.ndarray, pred_l1: np.ndarray, n_classes: int) -> dict:
    cm0 = confusion_matrix(truth, pred_l0, n_classes)
    cm1 = confusion_matrix(truth, pred_l1, n_classes)
    return {"oa_l0": overall_accuracy(cm0), "oa_l1": overall_accuracy(cm1),
            "kappa_l0": kappa(cm0), "kappa_l1": kappa(cm1)}


def fit_values(report) -> dict:
    return {"final_objective": report.final_objective,
            "final_feas1": report.final_feas1, "final_feas2": report.final_feas2}


def run_ops(run: Run, op) -> None:
    """Warm up once, then call ``op(run, i)`` until the run length is used.

    ``op`` returns the op's wall time; it records its other timings itself
    through ``run.add``.  Timings of failed ops and of the warm-up are
    dropped by rolling the samples back.
    """
    deadline = None
    i = 0
    while deadline is None or time.perf_counter() < deadline:
        # ops alternate in pairs (1 untraced, 2-3 traced, 4-5 untraced, ...)
        # so that an op pattern of period two is traced and untraced alike
        traced = run.tracer is not None and (i // 2) % 2 == 1
        kept = {k: len(v) for k, v in run.samples.items()}
        run.attempted += 1
        if traced:
            run.tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                op_s = op(run, i)
        except Exception:  # an op that fails is counted, reported and skipped
            run.failed += 1
            traceback.print_exc(file=sys.stderr)
            op_s = None
        finally:
            if traced:
                run.tracer.uninstall()
        fallbacks = sum(1 for w in caught if issubclass(w.category, NumericsWarning)
                        and "fallback" in str(w.message)) if op_s is not None else 0
        if i == 0 or op_s is None or traced:
            for k in run.samples:
                del run.samples[k][kept.get(k, 0):]
        if op_s is not None and i > 0:
            run.ridge_fallbacks += fallbacks
            if traced:
                run.traced_op_s.append(op_s)
                run.tracer.counters["ridge_fallbacks"] += fallbacks
            else:
                run.untraced_op_s.append(op_s)
        if deadline is None:
            deadline = time.perf_counter() + run.seconds
        i += 1


def timed_setups(run: Run, make):
    """Run ``make`` repeatedly, recording each duration; the inputs must be
    identical every time.  Returns the last result."""
    result, first = None, None
    while len(run.setup_s) < SETUP_MIN_REPEATS or (
            sum(run.setup_s) < SETUP_MIN_S and len(run.setup_s) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        result, fingerprint = make()
        run.setup_s.append(time.perf_counter() - t0)
        if first is None:
            first = fingerprint
        elif fingerprint != first:
            raise CheckFailed("set-up produced different inputs from the same seed")
    return result


# ---------------------------------------------------------------------------
# mixture-train: the ROADMAP baseline shape through the library; the model
# then serves the test batch one sample per call, as a closed loop with one
# caller, so per-model caches show here and per-batch caches do not

MIX = dict(n_classes=16, dim=60, n_train=25, n_test=5, separation=14.0)
MIX_ARCH = (42, 30, 21)
MIX_ITERS = 10
# Accuracy floors that a working classifier clears on every seed: over seeds
# 0-44 the lowest scores on the 80 test samples were 0.9375 (l1) and 0.7875
# (l0), and chance is 1/16.  A change that breaks classification fails ops.
MIX_OA_FLOOR = {"oa_l0": 0.6, "oa_l1": 0.85}


def mixture_train(run: Run) -> None:
    def make():
        x, y, xt, yt = data.gaussian_mixture(run.seed, **MIX)
        return (make_dataset(x, y), xt, yt), _sha(x.tobytes() + xt.tobytes())

    dataset, x_test, y_test = timed_setups(run, make)
    arch = Architecture(MIX_ARCH)
    cfg = TrainConfig(drop_mode=DropMode.NONE, outer_iters=MIX_ITERS, seed=run.seed % 2**31)
    n_test, n_classes = x_test.shape[1], MIX["n_classes"]
    model_path = os.path.join(run.work, "mixture.rsddl")

    def op(run: Run, i: int) -> float:
        t0 = time.perf_counter()
        model = joint_train(dataset, arch, cfg)
        t1 = time.perf_counter()
        labels, latency = {}, []
        for rule in ("l0", "l1"):
            got = []
            for j in range(n_test):  # one closed-loop caller, one sample per call
                r0 = time.perf_counter()
                got += predict_batch(model, x_test[:, j:j + 1], rule=rule)
                latency.append(1000 * (time.perf_counter() - r0))
            labels[rule] = np.array([p.label for p in got], dtype=np.int64)
        t2 = time.perf_counter()
        quality = scores(y_test, labels["l0"], labels["l1"], n_classes)
        t3 = time.perf_counter()

        for got in labels.values():
            check_predictions(got, n_test, n_classes)
        for name, floor in MIX_OA_FLOOR.items():
            if quality[name] < floor:
                raise CheckFailed(f"{name} {quality[name]:.4f} is below the floor {floor}")
        save_model(model, model_path)
        run.check_digests({"model": model_round_trip(model_path),
                           "labels": _sha(labels["l0"].tobytes() + labels["l1"].tobytes())})
        run.fit = fit_values(model.fit_report)
        run.quality = quality
        run.add("train_s", t1 - t0)
        run.add("classify_samples_per_s", 2 * n_test / (t2 - t1))
        run.add_requests(latency)
        run.add("pipeline_s", t3 - t0)
        return t3 - t0

    run_ops(run, op)


# ---------------------------------------------------------------------------
# scene-map: a synthetic cube through the rsddl CLI

SCENE = dict(height=20, width=20, bands=50, n_classes=16, labelled_fraction=0.7)
SCENE_WINDOW, SCENE_DIMS = 3, 30
SCENE_ARCH, SCENE_ITERS = "24,20,18", 10
SCENE_TRAIN_PER_CLASS = 5


def _cli(*argv) -> str:
    """Run one ``rsddl`` command in this process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rsddl.cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"rsddl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _report_values(report: str) -> dict:
    found = dict(re.findall(r"^(OA|Kappa) (-?[0-9.]+)$", report, flags=re.M))
    return {k: float(v) for k, v in found.items()}


def _last_iteration(log_path: str) -> dict:
    last = None
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("iter="):
                last = line
    if last is None:
        raise CheckFailed("run log has no iter= line")
    fields = dict(kv.split("=", 1) for kv in last.split())
    return {"final_objective": float(fields["objective"]),
            "final_feas1": float(fields["feas1"]), "final_feas2": float(fields["feas2"])}


def scene_map(run: Run) -> None:
    w = run.work
    cube_path, gt_path = os.path.join(w, "scene.hsi"), os.path.join(w, "scene.gt")

    def make():
        values, gt = data.scene_cube(run.seed, **SCENE)
        save_cube(HsiCube(values.astype(np.float64), gt), cube_path, gt_path)
        with open(cube_path, "rb") as a, open(gt_path, "rb") as b:
            return None, _sha(a.read() + b.read())

    timed_setups(run, make)
    p = {name: os.path.join(w, name) for name in
         ("feat", "train.csv", "train.labels", "test.csv", "test.labels",
          "model.rsddl", "pred_l0.tsv", "pred_l1.tsv")}
    n_classes = SCENE["n_classes"]

    def op(run: Run, i: int) -> float:
        t0 = time.perf_counter()
        _cli("features", "--cube", cube_path, "--labels", gt_path,
             "--window", SCENE_WINDOW, "--dims", SCENE_DIMS, "--out", p["feat"])
        full = make_dataset(load_matrix_csv(p["feat"] + ".csv"), load_labels(p["feat"] + ".labels"))
        counts = {c: min(SCENE_TRAIN_PER_CLASS, full.class_index[c].size - 1)
                  for c in range(1, full.num_classes + 1)}
        train, test = split_per_class(full, counts, Rng(run.seed).substream("split"))
        save_matrix_csv(train.x, p["train.csv"])
        save_labels(train.labels, p["train.labels"])
        save_matrix_csv(test.x, p["test.csv"])
        save_labels(test.labels, p["test.labels"])
        t1 = time.perf_counter()
        _cli("train", "--data", p["train.csv"], "--labels", p["train.labels"],
             "--arch", SCENE_ARCH, "--iters", SCENE_ITERS, "--seed", run.seed % 2**31,
             "--out", p["model.rsddl"])
        t2 = time.perf_counter()
        _cli("classify", "--model", p["model.rsddl"], "--data", p["test.csv"],
             "--rule", "l0", "--out", p["pred_l0.tsv"])
        t3 = time.perf_counter()
        _cli("classify", "--model", p["model.rsddl"], "--data", p["test.csv"],
             "--rule", "l1", "--out", p["pred_l1.tsv"])
        t4 = time.perf_counter()
        report_l0 = _cli("eval", "--pred", p["pred_l0.tsv"], "--truth", p["test.labels"],
                         "--pred-b", p["pred_l1.tsv"])
        report_l1 = _cli("eval", "--pred", p["pred_l1.tsv"], "--truth", p["test.labels"])
        t5 = time.perf_counter()

        n_test = test.n_samples
        labels = []
        for path in (p["pred_l0.tsv"], p["pred_l1.tsv"]):
            with open(path, encoding="utf-8") as fh:
                got = np.array([int(line.split("\t")[1]) for line in fh], dtype=np.int64)
            check_predictions(got, n_test, n_classes)
            labels.append(got)
        quality = scores(test.labels, labels[0], labels[1], n_classes)
        for report, rule in ((report_l0, "l0"), (report_l1, "l1")):
            shown = _report_values(report)
            if (abs(shown.get("OA", -9) - quality[f"oa_{rule}"]) > 5e-5
                    or abs(shown.get("Kappa", -9) - quality[f"kappa_{rule}"]) > 5e-5):
                raise CheckFailed(f"rsddl eval report disagrees with the predictions ({rule})")
        run.check_digests({"model": model_round_trip(p["model.rsddl"]),
                           "labels": _sha(labels[0].tobytes() + labels[1].tobytes())})
        run.fit = _last_iteration(p["model.rsddl"] + ".log")
        run.quality = quality
        run.add("train_s", t2 - t1)
        run.add("classify_samples_per_s", 2 * n_test / (t4 - t2))
        run.add_requests([1000 * (t3 - t2), 1000 * (t4 - t3)])
        run.add("pipeline_s", t5 - t0)
        return t5 - t0

    run_ops(run, op)


WORKLOADS = {"mixture-train": mixture_train, "scene-map": scene_map}


def median(values):
    return statistics.median(values) if values else 0.0


# A shared machine runs 1.5-2x slower while other tenants are busy, in
# stretches from under a second to minutes, so the share of slow time varies
# from run to run.  A reading at the fast end of a run's ops jumps with it:
# the fastest ops exist only in runs that had a quiet stretch longer than an
# op.  Op timings are therefore means over all of a run's ops, which move in
# proportion to the share of slow time.  In one ten-seed set of 55 s runs on
# a shared 2-vCPU machine the spread (quartile distance / median) of train_s
# was 0.096 as a mean over ops, 0.135 as a median and 0.190 at the fastest
# decile on mixture-train, and 0.082, 0.105 and 0.178 on scene-map.
def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def rate(values) -> float:
    """Run-level rate from per-op rates over equal amounts of work: total
    work over total time, the harmonic mean."""
    return statistics.harmonic_mean(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """Tail latency over all requests: ``(value, percentile, sample count)``.

    p95 once there are 200 requests, so that at least ten lie beyond it;
    below that, the highest percentile with ten requests beyond it (the
    maximum below 11 requests).  Higher percentiles of a long run land on
    single stalls: on a 540 s trace of mixture-train cut into 50 s windows,
    p99 spread 0.20 and p95 0.11.
    """
    n = len(values)
    if n == 0:
        return 0.0, 100.0, 0
    if n >= 200:
        return float(np.percentile(values, 95)), 95.0, n
    v = sorted(values)
    return (v[-1], 100.0, n) if n < 11 else (v[n - 11], 100.0 * (n - 10) / n, n)
