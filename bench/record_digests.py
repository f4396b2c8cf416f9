"""Record the reference output digests that run.py checks replays against.

    python3 bench/record_digests.py

For each workload, recorded seed and stream this writes the stream,
replays it once, untraced, and stores accuracy, split count, leaf count
and the sha256 of `tree.snapshot()` in bench/digests.json. Rerun it only
in a change that means to alter learner output, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
import worker


def main() -> int:
    st = worker.import_streamtree()
    digests = {}
    for name, w in wl.WORKLOADS.items():
        config = st.TreeConfig(**w.config_kwargs())
        digests[name] = {}
        for seed in wl.RECORDED_SEEDS:
            csv_paths, schema_path = wl.prepare(w, seed)
            schema = st.load_schema(schema_path)
            digests[name][str(seed)] = [
                worker.replay(st, schema, config, path, traced=False)[0]["digest"]
                for path in csv_paths]
            print(name, seed, [d["splits"] for d in digests[name][str(seed)]],
                  file=sys.stderr)
    with open(wl.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
