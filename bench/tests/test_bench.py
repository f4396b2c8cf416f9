"""Self-tests of the benchmark's own code.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import covtype  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

st = worker.import_streamtree()
from streamtree import synth  # noqa: E402


def test_covtype_is_deterministic_in_rows_and_seed(tmp_path):
    a = covtype.generate(2_000, 7)
    assert np.array_equal(a, covtype.generate(2_000, 7))
    assert not np.array_equal(a, covtype.generate(2_000, 8))
    paths = []
    for k in range(2):
        csv_path = tmp_path / f"w{k}.csv"
        schema_path = tmp_path / f"w{k}.schema.json"
        covtype.write_csv(str(csv_path), 2_000, 7)
        covtype.write_schema(str(schema_path))
        paths.append((csv_path.read_bytes(), schema_path.read_bytes()))
    assert paths[0] == paths[1]


def test_covtype_values_lie_in_declared_ranges(tmp_path):
    data = covtype.generate(5_000, 3)
    doc = covtype.schema_doc()
    assert data.shape == (5_000, len(doc["attributes"]) + 1)
    lo = np.array([a["min"] for a in doc["attributes"]])
    hi = np.array([a["max"] for a in doc["attributes"]])
    assert np.all(data[:, :-1] >= lo) and np.all(data[:, :-1] <= hi)
    t = len(covtype.TERRAIN)
    assert np.all(data[:, t:t + covtype.WILDERNESS].sum(axis=1) == 1)
    assert np.all(data[:, t + covtype.WILDERNESS:-1].sum(axis=1) == 1)
    assert set(np.unique(data[:, -1])) == set(range(covtype.CLASS_COUNT))

    csv_path, schema_path = tmp_path / "w.csv", tmp_path / "w.schema.json"
    covtype.write_csv(str(csv_path), 5_000, 3)
    covtype.write_schema(str(schema_path))
    stream = st.open_stream(str(csv_path), st.load_schema(str(schema_path)))
    assert sum(1 for _ in stream) == 5_000
    assert stream.clamp_count == 0


@pytest.mark.parametrize("n", [10_000, 12_345, 100_000, 540_000])
def test_p999_leaves_at_least_ten_samples_beyond(n):
    values = np.random.default_rng(n).random(n)
    p = worker.tail_percentile(values, 0.999)
    assert int(np.count_nonzero(values > p)) >= worker.MIN_BEYOND


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        worker.tail_percentile(np.arange(9_999.0), 0.999)
    assert worker.tail_percentile(np.arange(1.0, 102.0), 0.5) == 51.0


class _CountingStream:
    """Yields n samples, clamping on every third one."""

    def __init__(self, n):
        self.n = n
        self.clamp_count = 0

    def __next__(self):
        if self.n == 0:
            raise StopIteration
        self.n -= 1
        if self.n % 3 == 0:
            self.clamp_count += 1
        return st.Sample([0.0, 0.0], self.n % 2)


def test_stamped_stream_forwards_clamp_count_unchanged():
    inner = _CountingStream(10)
    stream = worker.StampedStream(inner)
    for _ in stream:
        assert stream.clamp_count == inner.clamp_count
    assert len(stream.stamps) == 10
    tree = st.new_tree(synth.preset_schema("bimodal"))
    inner = _CountingStream(10)
    m = st.harness.interleaved_test_then_train(tree, worker.StampedStream(inner))
    assert m.clamp_count == inner.clamp_count == 4


def test_stamped_stream_hides_clamp_count_the_inner_stream_lacks():
    stream = worker.StampedStream(iter([st.Sample([0.0, 0.0], 0)]))
    assert not hasattr(stream, "clamp_count")


def test_stamped_stream_probes_every_block_and_leaves_probes_out():
    n = 5 * worker.PROBE_EVERY + 3
    stream = worker.StampedStream(_CountingStream(n))
    assert sum(1 for _ in stream) == n
    assert len(stream.probes) == n // worker.PROBE_EVERY
    assert stream.paused_ns >= sum(stream.probes) > 0
    assert all(a <= b for a, b in zip(stream.stamps, stream.stamps[1:]))


def test_block_pace_ignores_a_lone_slow_probe():
    e = worker.PROBE_EVERY
    pace = worker.block_pace([10, 10, 10, 1000, 10, 10, 10], 7 * e + 5)
    assert len(pace) == 7 * e + 5
    assert np.all(pace == 10)
    pace = worker.block_pace([10, 10, 10, 40, 40, 40], 6 * e + 1)
    assert pace[0] == 10 and pace[-1] == 40
    assert np.all(pace[:e] == pace[0]) and np.all(np.diff(pace) >= 0)


def test_missing_hook_target_is_absent_not_fatal():
    class Bare:
        def predict(self, s):
            return 0

    tr = tracer.Tracer()
    original = st.split_eval.evaluate_split_trial
    tr.install(Bare())
    assert st.split_eval.evaluate_split_trial is not original
    tr.uninstall()
    assert st.split_eval.evaluate_split_trial is original
    assert {"train_one", "apply_split", "observe", "partition"} <= set(tr.absent)
    assert "predict" not in tr.absent
    metrics = tracer.layer_metrics(tr, Bare(), wall_s=1.0)
    assert "tree.route_calls" in metrics
    assert "leaf_stats.observe_calls" not in metrics
    assert "tree.train_self_busy_s" not in metrics


@pytest.mark.parametrize("method,backend", [("quantile", "float"),
                                            ("quantile", "fixed"),
                                            ("gaussian", "float")])
def test_traced_replay_matches_untraced(tmp_path, method, backend):
    csv_path = str(tmp_path / "b.csv")
    schema = synth.write_csv(csv_path, "bimodal", 3_000, 5)
    config = st.TreeConfig(method=method, numeric_backend=backend)
    plain, _, gaps = worker.replay(st, schema, config, csv_path, traced=False)
    traced, _, _ = worker.replay(st, schema, config, csv_path, traced=True)
    assert traced["digest"] == plain["digest"]
    assert plain["rows"] == len(gaps) == 3_000
    assert 0 < gaps.sum() / 1e6 < plain["paced_s"]
    layers = traced["layers"]
    assert layers["schema.rows"] == layers["tree.route_calls"] == 3_000
    assert layers["leaf_stats.observe_calls"] == 3_000
    assert layers["split_eval.trials"] > 0
    assert (layers["fixed_point.convert_calls"] > 0) == (backend == "fixed")
    assert (layers["gaussian.cdf_calls"] > 0) == (method == "gaussian")


def test_recorded_digests_cover_every_workload_and_stream():
    with open(worker.wl.DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    assert set(digests) == set(worker.wl.WORKLOADS)
    for name, per_seed in digests.items():
        assert set(per_seed) == {str(seed) for seed in worker.wl.RECORDED_SEEDS}
        for streams in per_seed.values():
            assert len(streams) == worker.wl.WORKLOADS[name].streams


def test_benchmark_json_lists_what_a_traced_run_reports(tmp_path):
    end_to_end, per_layer = run.metric_units()
    assert "setup_s" in end_to_end
    csv_path = str(tmp_path / "b.csv")
    schema = synth.write_csv(csv_path, "bimodal", 2_000, 1)
    rec, _, _ = worker.replay(st, schema, st.TreeConfig(), csv_path, traced=True)
    # the rest come from checkpoints and whole-run counts in run.py
    run_level = {"trace.overhead_ratio", "tree.snapshot_ms", "tree.restore_ms",
                 "tree.snapshot_bytes", "schema.rejected"}
    assert set(rec["layers"]) | run_level == set(per_layer)
