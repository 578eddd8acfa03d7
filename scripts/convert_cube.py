#!/usr/bin/env python3
"""Convert a hyperspectral cube + ground-truth raster into the package's
binary cube format (RSHSI1 / RSGT1).

Supported inputs:
  .npy  -- cube as a (height, width, bands) array; labels as (height, width)
  .mat  -- MATLAB files (requires scipy); pass the variable names with
           --cube-key / --gt-key, otherwise the single non-private variable
           in each file is used

Class ids in the ground truth must be whole numbers, 0 (unlabeled) or
contiguous 1..C.  Cube values must be finite and within float32's range,
the type the cube file stores.

Example:
    python scripts/convert_cube.py --cube scene.npy --gt scene_gt.npy --out scene
    # writes scene.hsi and scene.gt
"""

import argparse
import sys

import numpy as np

from rsddl.dataio import HsiCube, save_cube
from rsddl.numerics import as_labels


def _load_array(path, key):
    if str(path).endswith(".npy"):
        return np.load(path)
    if str(path).endswith(".mat"):
        try:
            from scipy.io import loadmat
        except ImportError:
            sys.exit("error: converting .mat files requires scipy")
        data = loadmat(path)
        if key is None:
            names = [k for k in data if not k.startswith("__")]
            if len(names) != 1:
                sys.exit(f"error: {path} holds {names}; pick one with --cube-key/--gt-key")
            key = names[0]
        if key not in data:
            sys.exit(f"error: variable {key!r} not in {path}")
        return data[key]
    sys.exit(f"error: unsupported input {path} (expected .npy or .mat)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--cube", required=True, help="cube array (.npy or .mat)")
    parser.add_argument("--gt", required=True, help="ground-truth raster (.npy or .mat)")
    parser.add_argument("--cube-key", default=None, help="variable name inside a .mat cube file")
    parser.add_argument("--gt-key", default=None, help="variable name inside a .mat ground-truth file")
    parser.add_argument("--out", required=True, help="output prefix (<out>.hsi and <out>.gt)")
    args = parser.parse_args(argv)

    values = np.asarray(_load_array(args.cube, args.cube_key), dtype=np.float64)
    gt = np.asarray(_load_array(args.gt, args.gt_key))
    if values.ndim != 3:
        sys.exit(f"error: cube must be (height, width, bands), got shape {values.shape}")
    if gt.shape != values.shape[:2]:
        sys.exit(f"error: ground truth shape {gt.shape} != cube spatial dims {values.shape[:2]}")
    if not np.all(np.isfinite(values)):
        sys.exit("error: cube holds NaN or infinite values")
    if np.any(np.abs(values) > np.finfo(np.float32).max):
        sys.exit("error: cube holds values beyond float32's range")
    try:
        gt = as_labels(gt).reshape(gt.shape)
    except ValueError as exc:
        sys.exit(f"error: ground truth: {exc}")
    present = sorted(set(np.unique(gt)) - {0})
    if present and present != list(range(1, len(present) + 1)):
        sys.exit(f"error: class ids must be contiguous 1..C (found {present}); relabel first")

    save_cube(HsiCube(values=values, ground_truth=gt), args.out + ".hsi", args.out + ".gt")
    labeled = int(np.sum(gt > 0))
    print(f"wrote {args.out}.hsi and {args.out}.gt "
          f"({values.shape[0]}x{values.shape[1]}x{values.shape[2]}, {labeled} labeled pixels, "
          f"{len(present)} classes)")


if __name__ == "__main__":
    main()
