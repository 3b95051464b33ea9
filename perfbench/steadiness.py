"""Steadiness check: two separately started sets of runs of every workload.

    python3 perfbench/steadiness.py

Each set runs every workload of ``BENCHMARK.json`` ten times with the
end-to-end metrics (``--trace 0``) and the run length of ``BENCHMARK.json``,
one run at a time and each with another seed: set A uses seeds 1..10, set B
seeds 11..20.
Within a set, the workloads take turns, so a slow spell on a shared host
falls on all of them.  For every end-to-end metric it prints both sets'
medians, each set's spread (distance between the first and third quartile
over the median, as ``statistics.quantiles(values, n=4)`` gives them) and how
much worse B's median is than A's, against the metric's bound.  All runs are
saved to ``perfbench/results/steadiness-<time>.json``.  Exits with status 1
when a spread or a shift exceeds its bound,
or when the two sets' shares of failed requests differ.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
RUNS = 10


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *log, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["wall_s"] = wall
    result["log"] = log
    print(f"  {workload:12s} seed {seed:3d}  {wall:5.1f} s  "
          + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
          + f"\n      {log[-1] if log else ''}", flush=True)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    sets = {}
    for label, first_seed in (("A", 1), ("B", RUNS + 1)):
        print(f"set {label}", flush=True)
        runs = {w: [] for w in names}
        for seed in range(first_seed, first_seed + RUNS):
            for w in names:
                runs[w].append(run_once(bench, w, seed))
        sets[label] = runs

    ok = True
    print(f"\n{'workload':12s} {'metric':14s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>8s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}")
    for w in names:
        a_runs, b_runs = sets["A"][w], sets["B"][w]
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            flag = ""
            if worse > m["bound"] or max(sa, sb) > m["bound"]:
                flag = "  OUT OF BOUND"
                ok = False
            print(f"{w:12s} {m['name']:14s} {ma:11.5g} {mb:11.5g} {sa:8.3f} {sb:8.3f} "
                  f"{worse:8.3f} {m['bound']:6.2f}{flag}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in (a_runs, b_runs)]
        walls = [r["wall_s"] for rs in (a_runs, b_runs) for r in rs]
        print(f"{w:12s} failed share A {shares[0]:.4f} B {shares[1]:.4f}; "
              f"run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        ok = ok and shares[0] == shares[1]

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(sets, indent=1))
    print(f"runs saved to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
