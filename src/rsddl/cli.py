"""Command-line frontend: feature extraction, training, classification, evaluation.

Exit codes: 0 on success, 2 for usage/config errors (reported before any
compute), 1 for runtime errors.  Progress and diagnostics go to stderr;
machine-readable outputs go to files or stdout, never mixed with log text.

Commands accept an optional ``--config`` file of flat ``key=value`` lines
(``#`` comments allowed), read by :func:`rsddl.dataio.read_pairs`; explicit
flags override the file, the file overrides built-in defaults, a key the
command does not take or a key given twice is a usage error, and the
effective configuration is echoed to stderr and the run log for
reproducibility.  Each key is a ``--key`` flag too, its text read as the
key's line is: ``rsddl features`` takes ``window`` and ``dims``, and
``rsddl train`` a row of :data:`rsddl.dataio.SETTING_KEYS` (mode, arch,
activation) or :data:`rsddl.dataio.CONFIG_KEYS` (the training keys) each,
the tables of the model file's text.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from .dataio import (
    CONFIG_KEYS,
    SETTING_KEYS,
    DataFormatError,
    load_cube,
    load_labels,
    load_matrix_csv,
    load_model,
    extract_spatial_spectral,
    make_dataset,
    format_config,
    format_settings,
    parse_settings,
    read_pairs,
    take_key,
    save_labels,
    save_matrix_csv,
    save_model,
)
from .greedy import compose_reconstruction, layerwise_factorize
from .inference import RULES, format_prediction_lines, predict_batch
from .joint import MODES, Model, TrainConfig, TrainingDivergedError, joint_train
from .metrics import confusion_matrix, format_report, mcnemar_z
from .numerics import Activation, Rng, pinv

__all__ = ["main", "entry"]


# rsddl features' keys and defaults: those of extract_spatial_spectral's window and d.
_FEATURE_PARAMS = inspect.signature(extract_spatial_spectral).parameters
_FEATURE_DEFAULTS = {"window": str(_FEATURE_PARAMS["window"].default), "dims": str(_FEATURE_PARAMS["d"].default)}

# rsddl train's defaults of the SETTING_KEYS rows; its CONFIG_KEYS default to TrainConfig's.
_TRAIN_DEFAULTS = {"mode": MODES[0], "arch": "100,50,25", "activation": Activation.TANH.value}


class UsageError(Exception):
    """Bad flag/config values detected before any compute."""


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_config_file(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
        return read_pairs((f"{path}:{lineno}", line) for lineno, line in enumerate(lines, 1) if line)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except DataFormatError as exc:
        raise UsageError(str(exc)) from None


def _add_key_flags(parser, keys) -> None:
    """A ``--key`` flag (``_`` written ``-``) for each of ``keys``, its text
    read and checked as the key's ``--config`` line is, then ``--config``."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.set_defaults(flag_keys=tuple(keys))


def _key_text(args, defaults: dict[str, str]) -> dict[str, str]:
    """The text of each key the command takes: its flag, else its ``--config``
    line, else ``defaults``; the file's other keys stay in, to be rejected."""
    text = dict(defaults)
    if args.config:
        text.update(_read_config_file(args.config))
    text.update((key, getattr(args, key)) for key in args.flag_keys if getattr(args, key) is not None)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsddl",
        description="Row-sparse discriminative deep dictionary learning pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("features", help="extract spatial-spectral features from a cube")
    p_feat.add_argument("--cube", required=True, help="cube file (RSHSI1 format)")
    p_feat.add_argument("--labels", required=True, help="ground-truth raster (RSGT1 format)")
    p_feat.add_argument("--out", required=True, help="output prefix (<out>.csv/.labels)")
    _add_key_flags(p_feat, _FEATURE_DEFAULTS)
    p_feat.set_defaults(func=cmd_features)

    p_train = sub.add_parser("train", help="train a model on a feature CSV")
    p_train.add_argument("--data", required=True, help="feature CSV, one sample per row")
    p_train.add_argument("--labels", required=True, help="label list, one class id per line")
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.add_argument("--log", default=None, help="run log path (default <out>.log)")
    _add_key_flags(p_train, [key for key, _, _ in SETTING_KEYS + CONFIG_KEYS])
    p_train.set_defaults(func=cmd_train)

    p_cls = sub.add_parser("classify", help="encode and classify a feature CSV")
    p_cls.add_argument("--model", required=True)
    p_cls.add_argument("--data", required=True, help="feature CSV, one sample per row")
    p_cls.add_argument("--rule", choices=RULES, default=RULES[0])
    p_cls.add_argument("--out", required=True, help="prediction output path")
    p_cls.set_defaults(func=cmd_classify)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--pred", required=True, help="prediction file or plain label list")
    p_eval.add_argument("--truth", required=True, help="label list, one class id per line")
    p_eval.add_argument("--pred-b", dest="pred_b", default=None,
                        help="second prediction file for a McNemar comparison")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def cmd_features(args) -> int:
    text = _key_text(args, _FEATURE_DEFAULTS)
    try:
        window, dims = (take_key(text, key, int) for key in _FEATURE_DEFAULTS)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if text:
        raise UsageError(f"unknown config key(s): {', '.join(sorted(text))}")
    if window < 1:
        raise UsageError(f"window must be >= 1, got {window}")
    if dims < 1:
        raise UsageError(f"dims must be >= 1, got {dims}")
    _info(f"config: window={window} dims={dims}")

    cube = load_cube(args.cube, args.labels)
    dataset = extract_spatial_spectral(cube, window=window, d=dims)
    save_matrix_csv(dataset.x, args.out + ".csv")
    save_labels(dataset.labels, args.out + ".labels")
    _info(
        f"extracted {dataset.n_samples} samples x {dataset.dim} dims "
        f"({dataset.num_classes} classes) -> {args.out}.csv/.labels"
    )
    return 0


def _effective_train_config(args):
    text = _key_text(args, _TRAIN_DEFAULTS)
    try:
        return parse_settings(text, TrainConfig())
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train(args) -> int:
    mode, arch, cfg = _effective_train_config(args)

    x = load_matrix_csv(args.data)
    labels = load_labels(args.labels)
    dataset = make_dataset(x, labels)
    log_path = args.log if args.log is not None else args.out + ".log"

    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        settings = " ".join(f"{key}={value}" for key, value in format_settings(mode, arch).items())
        for sink in (log, sys.stderr):  # the effective configuration, as the model file's text
            sink.write(f"config: {settings} {format_config(cfg)}\n")
        if mode == "joint":
            model = joint_train(dataset, arch, cfg, log=log)
        else:
            dicts, codes = layerwise_factorize(
                dataset.x, arch, cfg.per_column_s, cfg.outer_iters, Rng(cfg.seed)
            )
            z = codes[-1]
            model = Model(dicts, arch, z, dataset.labels, cfg, mode="greedy")
            # per-layer residuals: upper layers coded by the encoder's pseudo-inverse
            # chain, the deepest by its training codes
            act = arch.activation
            target = dataset.x
            for i, d in enumerate(dicts, 1):
                code = z if i == len(dicts) else pinv(d) @ target
                resid = float(np.linalg.norm(target - d @ code))
                log.write(f"layer={i} residual={resid:.17g}\n")
                if i < len(dicts):
                    target = act.inverse(code)
            recon = compose_reconstruction(dicts, z, act)
            log.write(f"greedy_recon={float(np.linalg.norm(dataset.x - recon)):.17g}\n")
    save_model(model, args.out)
    _info(f"trained {mode} model on {dataset.n_samples} samples -> {args.out} (log: {log_path})")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    x = load_matrix_csv(args.data)
    predictions = predict_batch(model, x, rule=args.rule)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_prediction_lines(predictions))
    _info(f"classified {x.shape[1]} samples with rule {args.rule} -> {args.out}")
    return 0


def _read_predictions(path) -> np.ndarray:
    """Prediction files (index<TAB>label<TAB>rule<TAB>distance) or plain label lists."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            token = line.split("\t")[1] if "\t" in line else line.strip()
            try:
                labels.append(int(token))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: not a label") from None
    if not labels:
        raise DataFormatError(f"{path}: empty file")
    return np.array(labels, dtype=np.int64)


def cmd_eval(args) -> int:
    pred_a = _read_predictions(args.pred)
    truth = load_labels(args.truth)
    if pred_a.size != truth.size:
        raise DataFormatError(
            f"prediction count {pred_a.size} != truth count {truth.size}"
        )
    num_classes = int(max(pred_a.max(), truth.max()))
    mc = None
    if args.pred_b is not None:
        pred_b = _read_predictions(args.pred_b)
        if pred_b.size != truth.size:
            raise DataFormatError(
                f"second prediction count {pred_b.size} != truth count {truth.size}"
            )
        num_classes = max(num_classes, int(pred_b.max()))
        mc = mcnemar_z(pred_a, pred_b, truth)
    cm = confusion_matrix(truth, pred_a, num_classes)
    sys.stdout.write(format_report(cm, mc))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, ValueError, OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
