"""Command-line frontend: feature extraction, training, classification, evaluation.

Exit codes: 0 on success, 2 for usage/config errors (reported before any
compute), 1 for runtime errors.  Progress and diagnostics go to stderr;
machine-readable outputs go to files or stdout, never mixed with log text.

Commands accept an optional ``--config`` file of flat ``key=value`` lines
(``#`` comments allowed); explicit flags override the file, the file
overrides built-in defaults, and the effective configuration is echoed to
stderr and the run log for reproducibility.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from .dataio import (
    DataFormatError,
    load_cube,
    load_labels,
    load_matrix_csv,
    load_model,
    extract_spatial_spectral,
    make_dataset,
    save_labels,
    save_matrix_csv,
    save_model,
)
from .greedy import Architecture, compose_reconstruction, layerwise_factorize
from .inference import format_prediction_lines, predict_batch
from .joint import (
    MODES,
    DropMode,
    Model,
    TrainConfig,
    TrainingDivergedError,
    joint_train,
    resolve_budget,
)
from .metrics import confusion_matrix, format_report, mcnemar_z
from .numerics import Activation, ActivationKind, Rng, pinv
from .sparse import SparsityBudget

__all__ = ["main", "entry"]


# Defaults of the feature flags: those of extract_spatial_spectral.
_FEATURE_DEFAULTS = inspect.signature(extract_spatial_spectral).parameters


class UsageError(Exception):
    """Bad flag/config values detected before any compute."""


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return values


def _resolve(args, file_cfg: dict[str, str], key: str, default, cast):
    """Precedence: explicit flag > config file > built-in default."""
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in file_cfg:
        try:
            return cast(file_cfg[key])
        except (TypeError, ValueError):
            raise UsageError(f"config key {key}={file_cfg[key]!r} is not valid") from None
    return default


def _parse_arch(text: str) -> tuple[int, ...]:
    try:
        atoms = tuple(int(a) for a in text.split(","))
    except ValueError:
        raise UsageError(f"bad architecture {text!r}; expected comma-separated atom counts") from None
    if not atoms or any(a < 1 for a in atoms):
        raise UsageError(f"bad architecture {text!r}; atom counts must be positive")
    return atoms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsddl",
        description="Row-sparse discriminative deep dictionary learning pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("features", help="extract spatial-spectral features from a cube")
    p_feat.add_argument("--cube", required=True, help="cube file (RSHSI1 format)")
    p_feat.add_argument("--labels", required=True, help="ground-truth raster (RSGT1 format)")
    p_feat.add_argument("--window", type=int, default=None,
                        help=f"spatial window size (default {_FEATURE_DEFAULTS['window'].default})")
    p_feat.add_argument("--dims", type=int, default=None,
                        help=f"PCA output dimension (default {_FEATURE_DEFAULTS['d'].default})")
    p_feat.add_argument("--out", required=True, help="output prefix (<out>.csv/.labels)")
    p_feat.add_argument("--config", default=None, help="key=value config file")
    p_feat.set_defaults(func=cmd_features)

    p_train = sub.add_parser("train", help="train a model on a feature CSV")
    p_train.add_argument("--data", required=True, help="feature CSV, one sample per row")
    p_train.add_argument("--labels", required=True, help="label list, one class id per line")
    p_train.add_argument("--arch", default=None, help="atoms per layer, e.g. 100,50,25")
    p_train.add_argument("--mode", choices=MODES, default=None)
    p_train.add_argument("--activation", choices=["tanh", "identity"], default=None)
    p_train.add_argument("--lambda-s", dest="lambda_s", type=int, default=None,
                         help="nonzeros per coefficient column (default: 20%% of deepest layer)")
    p_train.add_argument("--row-s", dest="row_s", type=int, default=None,
                         help="nonzero rows per class block (default: 20%% of deepest layer)")
    p_train.add_argument("--lambda-weight", dest="lambda_weight", type=float, default=None)
    p_train.add_argument("--mu", type=float, default=None, help="support-diversity weight")
    p_train.add_argument("--gamma", type=float, default=None, help="inner ADMM weight")
    p_train.add_argument("--eta1", type=float, default=None)
    p_train.add_argument("--eta2", type=float, default=None)
    p_train.add_argument("--drop", choices=["none", "out", "connect"], default=None)
    p_train.add_argument("--drop-rate", dest="drop_rate", type=float, default=None)
    p_train.add_argument("--iters", type=int, default=None,
                         help=f"outer iterations (default {TrainConfig.outer_iters})")
    p_train.add_argument("--inner-iters", dest="inner_iters", type=int, default=None)
    p_train.add_argument("--test-iters", dest="test_iters", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.add_argument("--log", default=None, help="run log path (default <out>.log)")
    p_train.add_argument("--config", default=None, help="key=value config file")
    p_train.set_defaults(func=cmd_train)

    p_cls = sub.add_parser("classify", help="encode and classify a feature CSV")
    p_cls.add_argument("--model", required=True)
    p_cls.add_argument("--data", required=True, help="feature CSV, one sample per row")
    p_cls.add_argument("--rule", choices=["l0", "l1"], default="l0")
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
    file_cfg = _read_config_file(args.config) if args.config else {}
    window = _resolve(args, file_cfg, "window", _FEATURE_DEFAULTS["window"].default, int)
    dims = _resolve(args, file_cfg, "dims", _FEATURE_DEFAULTS["d"].default, int)
    if window < 1:
        raise UsageError(f"window must be >= 1, got {window}")
    if dims < 1:
        raise UsageError(f"dims must be >= 1, got {dims}")
    _info(f"config: window={window} dims={dims}")

    cube = load_cube(args.cube, args.labels)
    dataset, _ = extract_spatial_spectral(cube, window=window, d=dims)
    save_matrix_csv(dataset.x, args.out + ".csv")
    save_labels(dataset.labels, args.out + ".labels")
    _info(
        f"extracted {dataset.n_samples} samples x {dataset.dim} dims "
        f"({dataset.num_classes} classes) -> {args.out}.csv/.labels"
    )
    return 0


def _effective_train_config(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    mode = _resolve(args, file_cfg, "mode", MODES[0], str)
    if mode not in MODES:
        raise UsageError(f"mode must be joint or greedy, got {mode!r}")
    arch_text = _resolve(args, file_cfg, "arch", "100,50,25", str)
    atoms = _parse_arch(arch_text)
    act_name = _resolve(args, file_cfg, "activation", Activation().kind.value, str)
    try:
        activation = Activation(kind=ActivationKind(act_name))
    except ValueError:
        raise UsageError(f"activation must be tanh or identity, got {act_name!r}") from None

    defaults = TrainConfig()
    drop_name = _resolve(args, file_cfg, "drop", defaults.drop_mode.value, str)
    try:
        drop_mode = DropMode(drop_name)
    except ValueError:
        raise UsageError(f"drop must be none, out or connect, got {drop_name!r}") from None

    try:
        arch = Architecture(atoms_per_layer=atoms, activation=activation)
        derived = resolve_budget(defaults, arch)
        budget = SparsityBudget(
            per_column_s=_resolve(args, file_cfg, "lambda_s", derived.per_column_s, int),
            row_s=_resolve(args, file_cfg, "row_s", derived.row_s, int),
        )
        budget.validate_for(arch.feature_dim)
        cfg = TrainConfig(
            lambda_budget=budget,
            lambda_weight=_resolve(args, file_cfg, "lambda_weight", defaults.lambda_weight, float),
            mu=_resolve(args, file_cfg, "mu", defaults.mu, float),
            eta1=_resolve(args, file_cfg, "eta1", defaults.eta1, float),
            eta2=_resolve(args, file_cfg, "eta2", defaults.eta2, float),
            gamma=_resolve(args, file_cfg, "gamma", defaults.gamma, float),
            outer_iters=_resolve(args, file_cfg, "iters", defaults.outer_iters, int),
            inner_iters=_resolve(args, file_cfg, "inner_iters", defaults.inner_iters, int),
            test_iters=_resolve(args, file_cfg, "test_iters", defaults.test_iters, int),
            drop_mode=drop_mode,
            drop_rate=_resolve(args, file_cfg, "drop_rate", defaults.drop_rate, float),
            seed=_resolve(args, file_cfg, "seed", defaults.seed, int),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return mode, arch, cfg


def _echo_config(mode: str, arch: Architecture, cfg: TrainConfig, sinks) -> None:
    budget = cfg.lambda_budget
    line = (
        f"config: mode={mode} arch={','.join(str(a) for a in arch.atoms_per_layer)} "
        f"activation={arch.activation.kind.value} lambda_s={budget.per_column_s} "
        f"row_s={budget.row_s} lambda_weight={cfg.lambda_weight:g} mu={cfg.mu:g} "
        f"eta1={cfg.eta1:g} eta2={cfg.eta2:g} gamma={cfg.gamma:g} "
        f"drop={cfg.drop_mode.value} drop_rate={cfg.drop_rate:g} iters={cfg.outer_iters} "
        f"inner_iters={cfg.inner_iters} test_iters={cfg.test_iters} seed={cfg.seed}"
    )
    for sink in sinks:
        sink.write(line + "\n")


def cmd_train(args) -> int:
    mode, arch, cfg = _effective_train_config(args)

    x = load_matrix_csv(args.data)
    labels = load_labels(args.labels)
    dataset = make_dataset(x, labels)
    log_path = args.log if args.log is not None else args.out + ".log"

    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        _echo_config(mode, arch, cfg, [log, sys.stderr])
        if mode == "joint":
            model = joint_train(dataset, arch, cfg, log=log)
        else:
            dicts, codes = layerwise_factorize(
                dataset.x, arch, cfg.lambda_budget.per_column_s, cfg.outer_iters, Rng(cfg.seed)
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
