"""streamtree benchmark: replay generated CSV streams through `eval`'s path.

    python3 bench/run.py --workload narrow-float --seed 1 --seconds 20 --trace 0

Run from the repository root. The bench writes the workload's CSV and
schema for `--seed` under `.bench_data/` (untimed), then starts fresh
processes of worker.py: a few set-up probes and one measuring process,
so that set-up time and peak RSS belong to that workload alone. It
checks every replay's output and prints, as its last stdout line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. The line before it records the machine and the run's
details. End-to-end times are paced: measured against a host probe
that runs alongside, so that a busy host does not read as a slower
program (README.md explains how).

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the bench cannot run here at all
(no streamtree sources next to it), without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

DEFAULT_SEED = 0
SETUP_PROBES = 9
TIME_LIMIT_S = 170  # a run must end within 180 s


def pin_environment() -> None:
    """Settings the worker processes inherit; call before importing numpy."""
    # numpy must start no helper threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # A fixed mmap threshold: glibc otherwise raises it after a large block
    # is freed, and the next tree's statistics pool then comes from the
    # heap, where calloc must touch every page. Peak RSS then jumps by the
    # pool size from one run to the next.
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)


def metric_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and the per-layer metrics."""
    with open(wl.BENCHMARK_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def machine_info() -> dict:
    load1, load5, load15 = os.getloadavg()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_at_start": [load1, load5, load15],
    }


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON output."""
    cmd = [sys.executable, os.path.join(wl.BENCH_DIR, "worker.py")] + args
    proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_records(w: wl.Workload, records: list, expected: list | None) -> list[str]:
    """One problem string per replay, '' when its outputs are correct."""
    problems = []
    first = {}  # stream -> digest of its first good replay
    for rec in records:
        p = rec.get("error", "")
        if not p:
            k = rec["stream"]
            d = rec["digest"]
            first.setdefault(k, d)
            if rec["rows"] != w.rows:
                p = f"saw {rec['rows']} of {w.rows} rows"
            elif rec["clamps"] != 0:
                p = f"{rec['clamps']} clamps on in-range input"
            elif d["accuracy"] < w.accuracy_floor:
                p = f"accuracy {d['accuracy']:.4f} below {w.accuracy_floor}"
            elif d["leaves"] != d["splits"] + 1:
                p = f"{d['leaves']} leaves after {d['splits']} splits"
            elif d != first[k]:
                p = (f"{'traced ' if rec['traced'] else ''}replay of stream {k}: "
                     f"{d} != {first[k]}")
            elif expected is not None and d != expected[k]:
                p = f"stream {k}: {d} != recorded {expected[k]}"
            elif not rec.get("roundtrip_ok", True):
                p = f"stream {k}: restore(snapshot).snapshot() differs"
        problems.append(p)
    return problems


def median_of(records: list, pick) -> float:
    return statistics.median(pick(r) for r in records)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(wl.SRC, "streamtree", "__init__.py")):
        print(f"bench: no streamtree sources under {wl.SRC}", file=sys.stderr)
        return 2
    machine = machine_info()
    pin_environment()
    sys.path.insert(0, wl.SRC)
    import numpy as np

    machine["numpy"] = np.__version__
    w = wl.WORKLOADS[args.workload]
    csv_paths, schema_path = wl.prepare(w, args.seed)
    common = ["--workload", args.workload, "--schema", schema_path]
    for path in csv_paths:
        common += ["--csv", path]

    try:
        setups = [run_worker(["setup"] + common, deadline)
                  for _ in range(SETUP_PROBES)]
        out = run_worker(["measure"] + common + ["--seconds", str(args.seconds),
                                                  "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        print(json.dumps({"machine": machine, "error": str(e)}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    records = out["records"]
    expected = wl.load_digests().get(args.workload, {}).get(str(args.seed))
    problems = check_records(w, records, expected)
    failed = sum(1 for q in problems if q)
    attempted = len(records)
    ok = [r for r, q in zip(records, problems) if not q]
    plain = [r for r in ok if not r["traced"]]
    # medians of each stream's checkpoint rounds, averaged over the run's
    # streams, whose final trees differ in size
    checkpoints = out["checkpoints"]

    def over_streams(key):
        return statistics.fmean(c[key] for c in checkpoints)

    def pass_s(recs):
        """Paced time of one pass over the streams (each stream's median
        replay, summed) and the number of streams."""
        per_stream = {}
        for r in recs:
            per_stream.setdefault(r["stream"], []).append(r["paced_s"])
        return sum(statistics.median(v) for v in per_stream.values()), len(per_stream)

    metrics = {}
    if args.trace:
        traced = [r for r in ok if r["traced"]]
        if traced and plain:
            for name in set().union(*(r["layers"] for r in traced)):
                metrics[name] = median_of(traced, lambda r: r["layers"][name])
            metrics["trace.overhead_ratio"] = pass_s(traced)[0] / pass_s(plain)[0]
        if checkpoints:
            metrics["tree.snapshot_ms"] = over_streams("snapshot_ms")
            metrics["tree.restore_ms"] = over_streams("restore_ms")
            metrics["tree.snapshot_bytes"] = over_streams("snapshot_bytes")
        metrics["schema.rejected"] = sum(
            1 for r in records if r.get("error", "").startswith("rejected"))
        units = metric_units()[1]
    else:
        if plain:
            seconds, streams = pass_s(plain)
            metrics["throughput_sps"] = streams * w.rows / seconds
            metrics["step_us_p50"] = out["steps"]["p50_us"]
            metrics["step_us_p999"] = out["steps"]["p999_us"]
        if checkpoints:
            metrics["checkpoint_ms"] = over_streams("checkpoint_ms")
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        metrics["setup_s"] = statistics.median(p["paced_s"] for p in setups)
        metrics["success_rate"] = (attempted - failed) / attempted
        units = metric_units()[0]

    detail = {
        "machine": machine,
        "workload": args.workload,
        "seed": args.seed,
        "digest_recorded": expected is not None,
        "replays": [{k: r.get(k) for k in ("stream", "traced", "rows", "wall_s",
                                           "paced_s", "error")}
                    for r in records],
        "digests": {r["stream"]: r["digest"] for r in ok},
        "problems": [q for q in problems if q],
        "steps": out.get("steps"),
        "setup_probes_s": [p["setup_s"] for p in setups],
        "setup_probes_paced_s": [p["paced_s"] for p in setups],
        "absent_hooks": sorted({h for r in ok for h in r.get("absent_hooks", [])}),
        "missing_metrics": sorted(set(units) - set(metrics)),
    }
    print(json.dumps(detail))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items()) if k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
