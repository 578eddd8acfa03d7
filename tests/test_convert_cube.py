"""``scripts/convert_cube.py`` on ``.npy`` inputs: what it writes loads back
through ``load_cube``, and what ``load_cube`` would reject or the cube file
cannot hold is refused before anything is written."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rsddl.dataio import load_cube
from rsddl.numerics import Rng

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "convert_cube.py"
_SPEC = importlib.util.spec_from_file_location("convert_cube", _PATH)
convert_cube = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(convert_cube)


def convert(tmp_path, values, gt):
    np.save(tmp_path / "cube.npy", values)
    np.save(tmp_path / "gt.npy", gt)
    convert_cube.main(["--cube", str(tmp_path / "cube.npy"), "--gt", str(tmp_path / "gt.npy"),
                       "--out", str(tmp_path / "scene")])


def cube_and_gt():
    values = Rng(5).standard_normal((3, 4, 2)).astype(np.float32).astype(np.float64)
    gt = np.array([[0, 1, 1, 2], [2, 0, 1, 2], [0, 0, 2, 1]])
    return values, gt


def test_converts_and_loads_back(tmp_path, capsys):
    values, gt = cube_and_gt()
    convert(tmp_path, values, gt.astype(np.float64))  # whole-valued float class ids convert
    cube = load_cube(tmp_path / "scene.hsi", tmp_path / "scene.gt")
    assert np.array_equal(cube.values, values)
    assert np.array_equal(cube.ground_truth, gt)
    assert "(3x4x2, 8 labeled pixels, 2 classes)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda v, g: (v, np.where(g == 1, 1.5, g)), "ground truth: class ids must be whole numbers"),
        (lambda v, g: (v, np.where(g == 1, np.nan, g)), "ground truth: class ids must be whole numbers"),
        (lambda v, g: (v, np.where(g == 2, 3, g)), "class ids must be contiguous 1..C"),
        (lambda v, g: (np.where(v > 1, np.nan, v), g), "cube holds NaN or infinite values"),
        (lambda v, g: (np.where(v > 1, -np.inf, v), g), "cube holds NaN or infinite values"),
        (lambda v, g: (np.where(v > 1, 1e39, v), g), "cube holds values beyond float32's range"),
    ],
    ids=["fractional class", "nan class", "gap in classes", "nan value", "inf value", "beyond float32"],
)
def test_rejects_before_writing(tmp_path, edit, message):
    values, gt = edit(*cube_and_gt())
    with pytest.raises(SystemExit) as exc:
        convert(tmp_path, values, gt)
    assert str(exc.value).startswith(f"error: {message}")
    assert not list(tmp_path.glob("scene*"))
