"""Evaluation protocol: predict-first ordering, sweeps, CDF export."""

import json
import math
import re

import numpy as np
import pytest

from streamtree import harness, synth
from streamtree.harness import (
    Metrics,
    compare_methods,
    export_cdf_comparison,
    interleaved_test_then_train,
    run_many,
    run_once,
    sweep_quantiles,
)
from streamtree.schema import AttributeSpec, DatasetSchema, Sample
from streamtree.tree import TreeConfig, new_tree

ONE_NUM = DatasetSchema(
    (AttributeSpec("x", "numeric", declared_min=-1.0, declared_max=1.0),), 2
)


def const_label_stream(n, label=1):
    return (Sample([0.1], label) for _ in range(n))


class TestInterleaved:
    def test_constant_label_first_sample_wrong(self):
        tree = new_tree(ONE_NUM)
        m = interleaved_test_then_train(tree, const_label_stream(1000))
        # untrained default is class 0, so exactly the first prediction misses
        assert m.samples_seen == 1000
        assert m.correct == 999

    def test_prediction_precedes_training(self):
        # if training ran first, the very first sample would be scored right
        tree = new_tree(ONE_NUM)
        m = interleaved_test_then_train(tree, const_label_stream(1))
        assert m.correct == 0

    def test_pure_noise_is_coinflip(self):
        tree = new_tree(synth.preset_schema("uniform-noise"))
        m = interleaved_test_then_train(
            tree, synth.generate("uniform-noise", 100_000, seed=17)
        )
        assert m.accuracy == pytest.approx(0.5, abs=0.02)

    def test_metrics_fields(self):
        tree = new_tree(synth.preset_schema("threshold"))
        m = interleaved_test_then_train(
            tree, synth.generate("threshold", 20_000, seed=3), window=5000
        )
        assert m.splits_taken == tree.split_count
        assert m.leaf_count == tree.leaf_count
        assert m.depth == tree.depth
        assert 0.0 <= m.accuracy <= 1.0
        assert len(m.window_series) == 4
        assert m.window_series[-1][0] == 20_000
        # windowed accuracy improves as the tree learns
        assert m.window_series[-1][1] > m.window_series[0][1]

    def test_nan_sample_raises_before_any_state_change(self):
        tree = new_tree(ONE_NUM)
        stream = [Sample([0.1], 1), Sample([float("nan")], 1), Sample([0.2], 1)]
        with pytest.raises(ValueError, match="attribute 0 .* is not in \\[-1, 1\\]: nan"):
            interleaved_test_then_train(tree, stream)
        assert tree.train_count == 1
        assert tree.stats.n_f[tree.root.eid] == 1

    def test_determinism_excluding_wall_time(self):
        runs = []
        for _ in range(2):
            tree = new_tree(synth.preset_schema("threshold"))
            m = interleaved_test_then_train(
                tree, synth.generate("threshold", 15_000, seed=5)
            )
            runs.append(m.to_json(include_timing=False))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("window", [0, -5, 1.5, True])
    def test_bad_window_refused_before_any_step(self, window):
        tree = new_tree(ONE_NUM)
        with pytest.raises(ValueError, match="window must be an int >= 1"):
            interleaved_test_then_train(tree, const_label_stream(10), window=window)
        assert tree.train_count == 0

    def test_clamp_count_from_csv_stream(self, tmp_path):
        schema = DatasetSchema(
            (AttributeSpec("x", "numeric", declared_min=0.0, declared_max=1.0),), 2
        )
        p = tmp_path / "d.csv"
        p.write_text("0.5,0\n7.0,1\n-2.0,0\n0.25,1\n", encoding="utf-8")
        _, m = run_once(str(p), schema, TreeConfig())
        assert m.samples_seen == 4
        assert m.clamp_count == 2


class TestSweep:
    def test_single_q_matches_plain_run(self):
        src = lambda: synth.generate("threshold", 10_000, seed=2)
        rows = sweep_quantiles(src, synth.preset_schema("threshold"), [8])
        _, direct = run_once(src, synth.preset_schema("threshold"), TreeConfig())
        assert rows[0][0] == 8
        assert rows[0][1].to_json(include_timing=False) == \
            direct.to_json(include_timing=False)

    def test_repeated_q_identical(self):
        src = lambda: synth.generate("bimodal", 10_000, seed=2)
        rows = sweep_quantiles(src, synth.preset_schema("bimodal"), [8, 8])
        assert rows[0][1].to_json(include_timing=False) == \
            rows[1][1].to_json(include_timing=False)

    def test_empty_q_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_quantiles(lambda: iter(()), ONE_NUM, [])

    def test_bad_q_refused_before_the_source_opens(self):
        with pytest.raises(ValueError, match="quantile_count must be >= 2"):
            sweep_quantiles(lambda: pytest.fail("the source was opened"), ONE_NUM, [8, 1])


class TestCompareMethods:
    def test_bimodal_separates_quantile_from_gaussian(self):
        # equal-moment classes: a Gaussian fit cannot tell them apart,
        # CDF-shape tracking can
        src = lambda: synth.generate("bimodal", 60_000, seed=6)
        out = compare_methods(src, synth.preset_schema("bimodal"))
        assert out["quantile"].accuracy > 0.73
        assert out["gaussian"].accuracy < out["quantile"].accuracy - 0.05

    def test_gauss_shift_both_work(self):
        src = lambda: synth.generate("gauss-shift", 30_000, seed=6)
        out = compare_methods(src, synth.preset_schema("gauss-shift"))
        assert out["quantile"].accuracy > 0.9
        assert out["gaussian"].accuracy > 0.9


ONE_PASS_CONFIGS = [
    TreeConfig(),
    TreeConfig(numeric_backend="fixed"),
    TreeConfig(method="gaussian"),
    TreeConfig(quantile_count=2),
]


class TestOnePass:
    @pytest.mark.parametrize("preset", sorted(synth.PRESETS))
    def test_one_pass_equals_separate_passes(self, preset):
        schema = synth.preset_schema(preset)
        src = lambda: synth.generate(preset, 6000, seed=4)
        for config, (tree, m) in zip(ONE_PASS_CONFIGS, run_many(src, schema, ONE_PASS_CONFIGS)):
            alone = new_tree(schema, config)
            m_alone = interleaved_test_then_train(alone, src())
            assert tree.split_log == alone.split_log
            assert tree.snapshot() == alone.snapshot()
            assert m.to_json(include_timing=False) == m_alone.to_json(include_timing=False)

    def test_compare_and_sweep_open_a_path_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "d.csv")
        schema = synth.write_csv(path, "threshold", 2000, seed=1)
        opened = []
        real = harness.open_stream
        monkeypatch.setattr(harness, "open_stream", lambda *a: opened.append(a) or real(*a))
        compare_methods(path, schema)
        assert len(opened) == 1
        sweep_quantiles(path, schema, [2, 8, 16])
        assert len(opened) == 2


def factory(xs):
    return lambda: (Sample([float(x)], 0) for x in xs)


class TestCdfExport:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.uni = rng.uniform(-1, 1, 20_000)
        self.gau = np.clip(rng.normal(0.0, 0.25, 20_000), -1, 1)
        bim = np.concatenate([
            rng.normal(-0.6, 0.1, 10_000), rng.normal(0.6, 0.1, 10_000)
        ])
        rng.shuffle(bim)
        self.bim = np.clip(bim, -1, 1)

    def test_uniform_quantile_within_005(self):
        comp = export_cdf_comparison(factory(self.uni), ONE_NUM, 0, 20_000)
        errs = comp.sup_errors()
        assert errs["quantile"] <= 0.05
        # the Gaussian fit of a uniform is fine near the center only
        center = np.abs(comp.xs) <= 0.25
        assert np.max(np.abs(comp.gaussian[center] - comp.exact[center])) <= 0.05
        assert errs["gaussian"] > 0.05

    def test_gaussian_attr_gaussian_method_wins(self):
        comp = export_cdf_comparison(factory(self.gau), ONE_NUM, 0, 20_000)
        errs = comp.sup_errors()
        assert errs["gaussian"] <= errs["quantile"] + 0.02

    def test_bimodal_quantile_wins(self):
        comp = export_cdf_comparison(factory(self.bim), ONE_NUM, 0, 20_000)
        errs = comp.sup_errors()
        assert errs["quantile"] < errs["gaussian"]

    @pytest.mark.parametrize("bad, message", [
        (1e200, "is not in [-1, 1]: 1e+200"), (math.nan, "is not in [-1, 1]: nan"),
        (10**400, "is not in [-1, 1]: a 1329-bit int"), (True, "is not a real number: True")])
    def test_a_value_outside_the_domain_refused(self, bad, message):
        # the pools take [-1, 1] only; alternating +-1e200 used to overflow
        # the gaussian's variance sum
        rows = [0.5, bad, -bad] * 5
        with pytest.raises(ValueError, match=re.escape(f"attribute 0 ('x') {message}")):
            export_cdf_comparison(lambda: (Sample([x], 0) for x in rows), ONE_NUM, 0, 20)

    def test_sample_limit_respected(self):
        comp = export_cdf_comparison(factory(self.uni), ONE_NUM, 0, 500)
        assert len(comp.xs) == 500

    def test_step_reconstruction_quantized(self):
        comp = export_cdf_comparison(factory(self.uni), ONE_NUM, 0, 5000)
        # round-down rule produces only multiples of 1/|Q|
        vals = np.unique(np.round(comp.quantile_step * 8))
        assert np.allclose(comp.quantile_step * 8, np.round(comp.quantile_step * 8))
        assert vals.min() >= 0 and vals.max() <= 8

    def test_one_sample(self):
        # the trackers sit on the sample, which is not below itself, and
        # the Gaussian fit of one sample is a step at it
        comp = export_cdf_comparison(factory([0.3]), ONE_NUM, 0, 10)
        assert comp.xs.tolist() == [0.3]
        assert comp.exact.tolist() == [1.0]
        assert comp.quantile_step.tolist() == [0.0]
        assert comp.gaussian.tolist() == [1.0]

    @pytest.mark.parametrize("limit", [0, -5])
    def test_sample_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="sample limit"):
            export_cdf_comparison(factory(self.uni), ONE_NUM, 0, limit)

    @pytest.mark.parametrize("kw", [{"lam": 0.0}, {"lam": -0.01}, {"quantile_count": 1}])
    def test_bad_tracker_config_rejected(self, kw):
        # the pool takes any step size; the export checks what eval checks
        with pytest.raises(ValueError, match="lam|quantile_count"):
            export_cdf_comparison(factory(self.uni), ONE_NUM, 0, 100, **kw)

    def test_categorical_attr_rejected(self):
        schema = DatasetSchema(
            (AttributeSpec("c", "categorical", cardinality=3),), 2
        )
        with pytest.raises(ValueError, match="not numeric"):
            export_cdf_comparison(lambda: iter(()), schema, 0, 100)

    @pytest.mark.parametrize("attr", [-1, 1, 99])
    def test_attr_outside_the_schema_rejected(self, attr):
        # -1 would silently pick the last attribute
        with pytest.raises(ValueError, match=f"attribute index {attr} outside 0..0"):
            export_cdf_comparison(factory(self.uni), ONE_NUM, attr, 100)

    def test_csv_emission(self, tmp_path):
        out = str(tmp_path / "cdf.csv")
        comp = export_cdf_comparison(
            factory(self.uni), ONE_NUM, 0, 1000, out_path=out
        )
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x,exact,quantile,quantile_step,gaussian"
        assert len(lines) == 1001
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == comp.xs[0]


class TestMetricsSerialization:
    def test_json_round_trip(self):
        m = Metrics(samples_seen=10, correct=7, leaf_count=3, depth=2,
                    wall_time=1.5)
        doc = json.loads(m.to_json())
        assert doc["accuracy"] == 0.7
        assert doc["wall_time"] == 1.5
        assert "wall_time" not in json.loads(m.to_json(include_timing=False))
