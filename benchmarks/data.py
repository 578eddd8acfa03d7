"""Seeded input generators owned by the benchmark.

They use numpy's own Philox generator keyed by the workload seed, not the
package's ``Rng`` nor the test-suite data helpers, so that edits to the package's
random streams or to the tests cannot move the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(stream.encode("ascii")[:8].ljust(8, b"\0"), "little")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_mixture(seed: int, n_classes: int, dim: int, n_train: int, n_test: int,
                     separation: float = 6.0):
    """Isotropic Gaussian mixture with unit noise and class means of norm
    ``separation`` in random directions.

    Returns ``(x_train, y_train, x_test, y_test)``; samples are columns,
    labels run 1..n_classes, and each class gets ``n_train`` / ``n_test``
    samples in class order.
    """
    rng = _rng(seed, "mixture")
    means = rng.standard_normal((dim, n_classes))
    means *= separation / np.linalg.norm(means, axis=0)

    def draw(n):
        x = np.repeat(means, n, axis=1) + rng.standard_normal((dim, n_classes * n))
        y = np.repeat(np.arange(1, n_classes + 1, dtype=np.int64), n)
        return x, y

    x_train, y_train = draw(n_train)
    x_test, y_test = draw(n_test)
    return x_train, y_train, x_test, y_test


def scene_cube(seed: int, height: int, width: int, bands: int, n_classes: int,
               labelled_fraction: float = 0.6):
    """Indian-Pines-shaped synthetic scene at radiance (digital number) scale.

    Like the AVIRIS Indian Pines scene it has 16 crop/land-cover classes laid
    out as contiguous fields of unequal size, field borders left unlabelled,
    and smooth spectra of a few thousand counts.  Fields are the Voronoi cells
    of sites on a jittered grid; each class has a smooth endmember spectrum,
    and every pixel mixes its field's endmember with a soil spectrum, scales
    it by an illumination factor and adds sensor noise.  The labelled pixels
    are the ``labelled_fraction`` of the scene farthest from a field border,
    so every seed yields the same number of them.

    Returns ``(values, ground_truth)``: float32 ``height x width x bands``
    values and an int64 ``height x width`` raster with 0 for unlabelled.
    """
    rng = _rng(seed, "scene")
    # a jittered 4 x 6 grid of sites keeps every field a few pixels wide;
    # each class owns one field and the rest go to random classes
    gy, gx = 4, 6
    cell = np.stack(np.mgrid[0:gy, 0:gx], axis=-1).reshape(-1, 2)
    sites = (cell + 0.2 + 0.6 * rng.random(cell.shape)) * (height / gy, width / gx)
    extra = rng.integers(1, n_classes + 1, gy * gx - n_classes)
    site_class = rng.permutation(np.concatenate([np.arange(1, n_classes + 1), extra]))
    rows, cols = np.mgrid[0:height, 0:width]
    dist = np.sqrt((rows[..., None] - sites[:, 0]) ** 2 + (cols[..., None] - sites[:, 1]) ** 2)
    field = site_class[np.argmin(dist, axis=2)].astype(np.int64)
    two = np.sort(dist, axis=2)
    margin = (two[..., 1] - two[..., 0]).reshape(-1)
    interior = np.argsort(-margin, kind="stable")[:round(labelled_fraction * height * width)]
    gt = np.zeros(height * width, dtype=np.int64)
    gt[interior] = field.reshape(-1)[interior]
    gt = gt.reshape(height, width)

    wl = np.linspace(0.0, 1.0, bands)

    def spectrum():
        centers = rng.random(4)
        widths = 0.05 + 0.2 * rng.random(4)
        heights = rng.random(4)
        bumps = (heights * np.exp(-((wl[:, None] - centers) / widths) ** 2)).sum(axis=1)
        return 1000.0 + 6000.0 * bumps / bumps.max()

    # the spread between class spectra is fixed, so that the scene's
    # contrast, and with it the training objective, does not vary by seed
    endmembers = np.stack([spectrum() for _ in range(n_classes)])
    centre = endmembers.mean(axis=0)
    spread = endmembers - centre
    endmembers = centre + spread * (1500.0 * np.sqrt(spread.size) / np.linalg.norm(spread))
    soil = spectrum()
    abundance = 0.6 + 0.4 * rng.random((height, width))
    illumination = 0.85 + 0.3 * rng.random((height, width))
    mixed = abundance[..., None] * endmembers[field - 1] + (1.0 - abundance[..., None]) * soil
    values = illumination[..., None] * mixed + 60.0 * rng.standard_normal((height, width, bands))
    return values.astype(np.float32), gt
