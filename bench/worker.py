"""One benchmark process for one workload, started fresh by run.py.

    python3 bench/worker.py setup   --workload W --csv C0 [--csv C1 ...] --schema S
    python3 bench/worker.py measure --workload W --csv C0 [--csv C1 ...] --schema S \
        --seconds N --trace 0|1

`setup` times import, load_schema, new_tree and the first sample.
`measure` replays the CSV streams through the path `streamtree eval`
uses (load_schema, new_tree, harness.interleaved_test_then_train over
open_stream, snapshot), one fresh tree per replay, until N seconds have
passed and every stream has been replayed, and checkpoints the final
tree of every untraced replay. With --trace 1 each stream is replayed
untraced and then traced.
Either prints one JSON object on stdout; run.py checks and reports it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

import workloads as wl
from tracer import Tracer, layer_metrics

MIN_BEYOND = 10      # samples required beyond a reported percentile
WARMUP_ROWS = 2_000
CHECKPOINT_REPS = 3  # snapshot + restore rounds after each untraced replay
PROBE_EVERY = 32     # samples between host probes
PROBE_LOOPS = 400    # one probe is about 25-40 us of interpreter work
PROBE_WINDOW = 5     # probes in the rolling median that paces a block
SETUP_HOST_PROBES = 200  # host probes on either side of a set-up
# Paced times read as if every probe had taken this long: a probe's time
# on an idle core of the 2-vCPU Xeon host the bench was tuned on.
REFERENCE_PROBE_NS = 25_600


def import_streamtree():
    """Import streamtree from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, wl.SRC)
    import streamtree

    if not os.path.abspath(streamtree.__file__).startswith(wl.SRC + os.sep):
        raise ImportError(f"streamtree resolved outside {wl.SRC}: {streamtree.__file__}")
    return streamtree


def host_probe() -> int:
    """Nanoseconds a fixed piece of interpreter work takes right now.

    On a host whose cores are shared with other machines the same code
    runs up to about 1.7x slower for stretches of milliseconds to tens of
    seconds. Probe times follow that slowdown, so a time divided by the
    probe times around it (and multiplied by REFERENCE_PROBE_NS) is the
    time the work would take at a steady pace: a paced time.
    """
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(PROBE_LOOPS):
        s += (i * 7) % 13
    return time.perf_counter_ns() - t0


def probe_median(n: int) -> float:
    return statistics.median(host_probe() for _ in range(n))


class StampedStream:
    """The iterator handed to the harness.

    Stamps each sample handoff with perf_counter_ns, so successive stamps
    bound the consumer's per-sample time (parse, predict, train), and
    forwards `clamp_count` from the wrapped stream unchanged. Every
    PROBE_EVERY samples it runs a host probe; `probes` holds their times
    and the stamps leave the time spent probing out.
    """

    def __init__(self, inner, next_fn=None):
        self._inner = inner
        self._next = inner.__next__ if next_fn is None else next_fn
        self.stamps: list[int] = []
        self.probes: list[int] = []
        self.paused_ns = 0

    def __iter__(self):
        return self

    def __next__(self):
        s = self._next()
        if len(self.stamps) % PROBE_EVERY == PROBE_EVERY - 1:
            t0 = time.perf_counter_ns()
            self.probes.append(host_probe())
            self.paused_ns += time.perf_counter_ns() - t0
        self.stamps.append(time.perf_counter_ns() - self.paused_ns)
        return s

    @property
    def clamp_count(self):
        return self._inner.clamp_count


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-quantile of `values`, refusing thin tails.

    Raises ValueError unless at least MIN_BEYOND values lie above the
    returned rank.
    """
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    k = max(math.ceil(q * n) - 1, 0)
    if n - (k + 1) < MIN_BEYOND:
        raise ValueError(f"{n} samples leave {n - (k + 1)} beyond the "
                         f"{q} quantile; need {MIN_BEYOND}")
    return float(xs[k])


def block_pace(probes, n: int):
    """Host pace of each of n samples: the rolling median of the probe
    times (ns) around the sample's block of PROBE_EVERY samples."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    p = np.asarray(probes if len(probes) else [host_probe()], dtype=np.float64)
    h = PROBE_WINDOW // 2
    smooth = np.median(sliding_window_view(np.pad(p, h, mode="edge"), PROBE_WINDOW), axis=1)
    return smooth[np.minimum(np.arange(n) // PROBE_EVERY, len(smooth) - 1)]


def replay(st, schema, config, csv_path: str, traced: bool):
    """One pass of the stream through a fresh tree.

    Returns (record, tree, gaps): gaps are the paced per-handoff times
    in microseconds, the first measured from the harness call, each paced
    by its block (see block_pace). record["paced_s"] is the paced time of
    the whole replay, record["wall_s"] its plain time; both leave the
    probes out.
    """
    import numpy as np

    t0 = time.perf_counter()
    tree = st.new_tree(schema, config)
    new_tree_s = time.perf_counter() - t0
    inner = st.open_stream(csv_path, schema)
    tr = None
    if traced:
        tr = Tracer()
        tr.install(tree)
        stream = StampedStream(inner, tr.wrap("schema", inner.__next__))
    else:
        stream = StampedStream(inner)
    try:
        start = time.perf_counter_ns()
        m = st.harness.interleaved_test_then_train(tree, stream)
        end = time.perf_counter_ns() - stream.paused_ns
    finally:
        if tr is not None:
            tr.uninstall()
    wall_s = (end - start) / 1e9
    stamps = stream.stamps
    rec = {
        "traced": traced,
        "rows": m.samples_seen,
        "wall_s": wall_s,
        "clamps": m.clamp_count,
        "digest": {
            "accuracy": m.accuracy,
            "splits": m.splits_taken,
            "leaves": m.leaf_count,
            "snapshot_sha256": hashlib.sha256(tree.snapshot()).hexdigest(),
        },
    }
    if tr is not None:
        layers = layer_metrics(tr, tree, wall_s)
        layers["schema.rows"] = len(stamps)
        layers["schema.busy_s"] = tr.busy["schema"]
        layers["schema.clamps"] = m.clamp_count
        layers["tree.new_tree_ms"] = new_tree_s * 1e3
        rec["layers"] = layers
        rec["absent_hooks"] = tr.absent
    # the last gap runs from the last handoff to the returned Metrics
    pace = block_pace(stream.probes, len(stamps) + 1)
    gaps = (np.diff(np.asarray([start] + stamps + [end], dtype=np.int64))
            * (REFERENCE_PROBE_NS / 1e3) / pace)
    rec["paced_s"] = float(gaps.sum()) / 1e6
    return rec, tree, gaps[:-1]


def checkpoint(st, tree, reps: dict) -> bool:
    """Time CHECKPOINT_REPS snapshot() + restore() rounds of `tree`.

    Appends the times in ms, paced by probes just before and after each
    round, to `reps` and returns whether the restored tree
    snapshots to the same bytes. Each round starts from a collected heap,
    so a cyclic-GC pass that earlier garbage would trigger does not land
    in a random one.
    """
    for _ in range(CHECKPOINT_REPS):
        gc.collect()
        before = probe_median(PROBE_WINDOW)
        t0 = time.perf_counter_ns()
        blob = tree.snapshot()
        t1 = time.perf_counter_ns()
        restored = st.restore(blob)
        t2 = time.perf_counter_ns()
        scale = REFERENCE_PROBE_NS / 1e6 / ((before + probe_median(PROBE_WINDOW)) / 2)
        reps["snapshot_ms"].append((t1 - t0) * scale)
        reps["restore_ms"].append((t2 - t1) * scale)
        reps["checkpoint_ms"].append((t2 - t0) * scale)
    reps["snapshot_bytes"] = len(blob)
    return restored.snapshot() == blob


def cmd_setup(args) -> dict:
    """Set-up time, plain and paced by probes on either side."""
    w = wl.WORKLOADS[args.workload]
    before = probe_median(SETUP_HOST_PROBES)
    t0 = time.perf_counter_ns()
    st = import_streamtree()
    schema = st.load_schema(args.schema)
    st.new_tree(schema, st.TreeConfig(**w.config_kwargs()))
    next(st.open_stream(args.csv[0], schema))
    t1 = time.perf_counter_ns()
    pace = (before + probe_median(SETUP_HOST_PROBES)) / 2
    return {"setup_s": (t1 - t0) / 1e9,
            "paced_s": (t1 - t0) / 1e9 * REFERENCE_PROBE_NS / pace}


def cmd_measure(args) -> dict:
    w = wl.WORKLOADS[args.workload]
    st = import_streamtree()
    import numpy as np

    schema = st.load_schema(args.schema)
    config = st.TreeConfig(**w.config_kwargs())
    csvs = args.csv
    # warm caches and first-call paths; not timed, not checked
    st.harness.interleaved_test_then_train(
        st.new_tree(schema, config),
        itertools.islice(st.open_stream(csvs[0], schema), WARMUP_ROWS))

    # untraced: replay streams 0, 1, ..., K-1, 0, ...; traced: each stream
    # untraced then traced, so the pair's outputs can be compared
    first_pass = len(csvs) * (2 if args.trace else 1)
    records, gaps, peak_rss_mb = [], [], None
    reps = [{"snapshot_ms": [], "restore_ms": [], "checkpoint_ms": []} for _ in csvs]
    deadline = time.perf_counter() + args.seconds
    for i in itertools.count():
        k = (i // 2 if args.trace else i) % len(csvs)
        traced = bool(args.trace) and i % 2 == 1
        try:
            rec, tree, rec_gaps = replay(st, schema, config, csvs[k], traced)
        except st.schema.StreamFormatError as e:
            rec = {"traced": traced, "error": f"rejected: {e}"}
        else:
            if not traced:
                gaps.append((k, rec_gaps))
                # a few checkpoint rounds after every untraced replay, so
                # they sample the whole run
                ok = checkpoint(st, tree, reps[k])
                if len(reps[k]["checkpoint_ms"]) == CHECKPOINT_REPS:
                    rec["roundtrip_ok"] = ok
            del tree
        rec["stream"] = k
        records.append(rec)
        if len(records) == first_pass:
            # every stream replayed and checkpointed once; later replays
            # repeat the same work and only add the bench's step samples
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() >= deadline and len(records) >= first_pass:
            break

    out = {"records": records, "peak_rss_mb": peak_rss_mb,
           "checkpoints": [{key: (statistics.median(v) if isinstance(v, list) else v)
                            for key, v in r.items()} for r in reps if r["checkpoint_ms"]]}
    if gaps:
        # whole rounds over the streams only, so that every stream weighs
        # the same
        rounds = min(sum(1 for j, _ in gaps if j == k) for k in range(len(csvs)))
        all_gaps = np.concatenate([g for _, g in gaps[:rounds * len(csvs)]])
        out["steps"] = {"count": int(all_gaps.size),
                        "p50_us": tail_percentile(all_gaps, 0.5),
                        "p999_us": tail_percentile(all_gaps, 0.999)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--csv", required=True, action="append",
                   help="a stream to replay; repeat for each stream")
    p.add_argument("--schema", required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
