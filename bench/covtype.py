"""Covertype-shaped synthetic stream for the wide-schema workloads.

The layout follows the UCI forest cover type data as `data/README.md`
encodes it: 10 integer-valued terrain attributes, then 4 wilderness-area
and 40 soil-type one-hot columns declared numeric over [0, 1], then the
class code 0..6. Class shares and the elevation bands per class follow
the real data roughly; the class-conditional distributions of the other
attributes are fixed tables, so every seed draws from the same
distribution. Output is deterministic in (rows, seed), and every raw
value lies inside its declared range, so the schema layer clamps nothing.
"""

from __future__ import annotations

import json

import numpy as np

CLASS_COUNT = 7
CLASS_SHARE = np.array([0.365, 0.488, 0.062, 0.005, 0.016, 0.030, 0.034])
CLASS_SHARE = CLASS_SHARE / CLASS_SHARE.sum()

# name, declared min, declared max
TERRAIN = (
    ("elevation", 1859, 3858),
    ("aspect", 0, 360),
    ("slope", 0, 66),
    ("hydrology_h", 0, 1397),
    ("hydrology_v", -173, 601),
    ("roadways_h", 0, 7117),
    ("hillshade_9am", 0, 254),
    ("hillshade_noon", 0, 254),
    ("hillshade_3pm", 0, 254),
    ("fire_points_h", 0, 7173),
)
WILDERNESS = 4
SOIL = 40
ATTR_COUNT = len(TERRAIN) + WILDERNESS + SOIL

ELEVATION_MEAN = np.array([3130.0, 2920.0, 2390.0, 2220.0, 2790.0, 2420.0, 3360.0])
ELEVATION_SD = np.array([150.0, 190.0, 190.0, 100.0, 100.0, 190.0, 110.0])


def _class_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class wilderness and soil distributions and terrain scales.

    Drawn once from a constant seed: they define the stream's structure,
    not a sample of it.
    """
    rng = np.random.default_rng(20200901)
    wild = rng.dirichlet(np.full(WILDERNESS, 0.6), CLASS_COUNT)
    soil = rng.dirichlet(np.full(SOIL, 0.15), CLASS_COUNT)
    scale = rng.uniform(0.5, 1.5, (CLASS_COUNT, len(TERRAIN)))
    return wild, soil, scale


def schema_doc() -> dict:
    attrs = [{"name": name, "kind": "numeric", "min": float(lo), "max": float(hi)}
             for name, lo, hi in TERRAIN]
    attrs += [{"name": f"wilderness_{k}", "kind": "numeric", "min": 0.0, "max": 1.0}
              for k in range(WILDERNESS)]
    attrs += [{"name": f"soil_{k}", "kind": "numeric", "min": 0.0, "max": 1.0}
              for k in range(SOIL)]
    return {"attributes": attrs, "classes": CLASS_COUNT,
            "label_column": "last", "has_header": False}


def generate(rows: int, seed: int) -> np.ndarray:
    """Integer matrix of shape (rows, ATTR_COUNT + 1); the last column is the class."""
    wild_p, soil_p, scale = _class_tables()
    rng = np.random.default_rng(seed)
    y = rng.choice(CLASS_COUNT, size=rows, p=CLASS_SHARE)
    out = np.zeros((rows, ATTR_COUNT + 1), dtype=np.int64)
    s = scale[y]  # (rows, terrain) class-conditional spread factors
    terrain = np.empty((rows, len(TERRAIN)))
    terrain[:, 0] = rng.normal(ELEVATION_MEAN[y], ELEVATION_SD[y])
    terrain[:, 1] = (rng.vonmises(0.0, 0.5, rows) * 180.0 / np.pi
                     + 60.0 * s[:, 1]) % 360.0
    terrain[:, 2] = rng.gamma(3.0, 4.5 * s[:, 2])
    terrain[:, 3] = rng.exponential(270.0 * s[:, 3])
    terrain[:, 4] = rng.normal(45.0 * s[:, 4], 58.0)
    terrain[:, 5] = rng.exponential(2350.0 * s[:, 5])
    terrain[:, 6] = rng.normal(212.0 + 8.0 * s[:, 6], 27.0)
    terrain[:, 7] = rng.normal(223.0 - 6.0 * s[:, 7], 20.0)
    terrain[:, 8] = rng.normal(142.0 + 20.0 * s[:, 8], 38.0)
    terrain[:, 9] = rng.exponential(1980.0 * s[:, 9])
    lo = np.array([t[1] for t in TERRAIN], dtype=np.float64)
    hi = np.array([t[2] for t in TERRAIN], dtype=np.float64)
    out[:, :len(TERRAIN)] = np.clip(np.rint(terrain), lo, hi)
    # one hot per row: inverse-CDF draw from the row's class distribution
    base = len(TERRAIN)
    for probs, width in ((wild_p, WILDERNESS), (soil_p, SOIL)):
        cdf = np.cumsum(probs, axis=1)[y]
        pick = (rng.random(rows)[:, None] > cdf).sum(axis=1)
        out[np.arange(rows), base + np.minimum(pick, width - 1)] = 1
        base += width
    out[:, -1] = y
    return out


def write_csv(path: str, rows: int, seed: int) -> None:
    data = generate(rows, seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(",".join(map(str, r)) for r in data.tolist()))
        fh.write("\n")


def write_schema(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_doc(), fh, indent=2, sort_keys=True)
