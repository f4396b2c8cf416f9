"""Workload table, input preparation and recorded output digests.

Each run replays several distinct streams drawn from its seed, because
how far a Hoeffding tree grows on one stream varies a lot from stream to
stream; metrics over several streams vary much less from seed to seed.

Importing this module does not import numpy or streamtree, so the set-up
probe can time those imports itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DATA_DIR = os.path.join(ROOT, ".bench_data")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
RECORDED_SEEDS = range(10)  # seeds whose output digests digests.json holds


@dataclass(frozen=True)
class Workload:
    stream: str            # "bimodal" (streamtree.synth) or "covtype" (covtype.py)
    rows: int              # rows per stream
    streams: int           # distinct streams per run; replays cycle through them
    method: str
    backend: str
    accuracy_floor: float  # a working learner beats this on every stream

    def config_kwargs(self) -> dict:
        return {"method": self.method, "numeric_backend": self.backend}


# Default TreeConfig except for method and backend. The narrow pair share
# their CSVs, as do the wide pair. The floors sit well above the majority
# class share (0.5 narrow, about 0.49 wide).
WORKLOADS = {
    "narrow-float": Workload("bimodal", 50_000, 4, "quantile", "float", 0.70),
    "narrow-fixed": Workload("bimodal", 50_000, 4, "quantile", "fixed", 0.70),
    "wide-float": Workload("covtype", 30_000, 6, "quantile", "float", 0.60),
    "wide-gaussian": Workload("covtype", 30_000, 6, "gaussian", "float", 0.60),
}


def stream_seed(seed: int, k: int) -> int:
    """Generator seed of stream k of a run with `seed`."""
    return 100 * seed + k


def prepare(w: Workload, seed: int) -> tuple[list[str], str]:
    """Write the run's CSV streams and the schema; returns their paths.

    Needs `SRC` on sys.path (the bimodal streams come from streamtree.synth).
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    os.makedirs(DATA_DIR, exist_ok=True)
    schema_path = os.path.join(DATA_DIR, f"{w.stream}.schema.json")
    csv_paths = [os.path.join(DATA_DIR, f"{w.stream}-{w.rows}-{k}.csv")
                 for k in range(w.streams)]
    if w.stream == "bimodal":
        from streamtree import synth
        from streamtree.schema import schema_to_json

        for k, path in enumerate(csv_paths):
            synth.write_csv(path, "bimodal", w.rows, stream_seed(seed, k))
        with open(schema_path, "w", encoding="utf-8") as fh:
            fh.write(schema_to_json(synth.preset_schema("bimodal")))
    else:
        import covtype

        for k, path in enumerate(csv_paths):
            covtype.write_csv(path, w.rows, stream_seed(seed, k))
        covtype.write_schema(schema_path)
    return csv_paths, schema_path


def load_digests() -> dict:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
