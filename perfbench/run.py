"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload oneshot3d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``freepoisson`` is imported from its
``src`` directory.  Requests form a closed loop in this process: each starts
after the previous one returned and was checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
gives the per-layer metrics from a traced run and writes its spans to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# Cap library thread pools so that a run uses at most two threads: the
# plane2d_cli commands ask for two, everything else runs on one.
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oneshot3d", "steps3d", "plane2d_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def p10(values) -> float:
    """10th percentile, interpolated linearly between the sorted samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def setup_probe(args) -> None:
    """Child of a run: import, build the first input, solve it, report when."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path.cwd(), ROOT)
    workload.request(workload.next_input())
    print(time.monotonic())


def setup_seconds(args, workdir: Path, host, command=None) -> tuple[float, float]:
    """Median start-to-first-result wall time of fresh processes.

    Each probe starts a new interpreter that imports ``freepoisson`` and
    returns from its first request (for ``plane2d_cli``: runs the first
    command), each in an empty directory of its own with its own cache and
    temporary directories, so work moved into set-up or onto disk shows.
    Returns the median scaled to the reference host speed by the median of
    the kernel timings taken before each probe and after the last, and the
    raw median.
    """
    import hostspeed
    import workloads

    times = []
    kernel = [host.kernel_seconds()]
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        env = workloads.python_env(ROOT, {
            **THREAD_CAPS, "HOME": str(probe_dir), "TMPDIR": str(probe_dir),
            "XDG_CACHE_HOME": str(probe_dir / ".cache"),
        })
        if command is None:
            cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
                   "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        else:
            cmd = command
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=probe_dir, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        end = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if command is None:
            end = float(proc.stdout.split()[-1])
        times.append(end - start)
        kernel.append(host.kernel_seconds())
    raw = statistics.median(times)
    return hostspeed.scaled(raw, statistics.median(kernel)), raw


class Runner:
    """The measured loop of one workload, shared by both trace modes."""

    def __init__(self, workload, seconds: float, host):
        self.workload = workload
        self.seconds = seconds
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []
        self.kernel_s = []

    def one(self, request) -> float | None:
        """Run, time and check one request; returns its time or None."""
        import workloads

        inp = self.workload.next_input()
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = request(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"request failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        elapsed = time.perf_counter() - start
        try:
            self.errors.append(self.workload.check(inp, out))
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        return elapsed

    def calibrate(self) -> float:
        self.kernel_s.append(self.host.kernel_seconds())
        return self.kernel_s[-1]

    def loop(self, requests):
        """Cycle through ``requests`` until the run's time is up.

        Returns, per request function, the list of raw and the list of
        scaled request times.  The host-speed kernel is timed before the
        first request and after every request; each request is scaled by
        the mean of the timings just before and just after it.
        """
        import hostspeed

        raw = [[] for _ in requests]
        scaled = [[] for _ in requests]
        deadline = time.monotonic() + self.seconds
        before = self.calibrate()
        while True:
            for i, request in enumerate(requests):
                t = self.one(request)
                after = self.calibrate()
                if t is not None:
                    raw[i].append(t)
                    scaled[i].append(hostspeed.scaled(t, 0.5 * (before + after)))
                before = after
            if time.monotonic() >= deadline:
                return raw, scaled


def in_process_cli(workload):
    """Request function that runs the plane2d_cli command via ``cli.main``."""
    from freepoisson import cli

    def request(inp):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(workload.argv())

    return request


def peak_mib(request, inp) -> float:
    tracemalloc.start()
    try:
        request(inp)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_end_to_end(args, workload, workdir: Path, host) -> dict:
    import hostspeed

    cli = args.workload == "plane2d_cli"
    if cli:
        command = [sys.executable, "-m", "freepoisson", *workload.argv(workdir / "probe.pgrid")]
        setup_s, setup_raw = setup_seconds(args, workdir, host, command)
        # The command's own code path, in this process so tracemalloc sees it.
        peak = peak_mib(in_process_cli(workload), workload.next_input())
    else:
        setup_s, setup_raw = setup_seconds(args, workdir, host)
        workload.request(workload.next_input())  # warm-up: lazy imports
        peak = max(peak_mib(workload.request, inp) for inp in workload.memory_inputs())
    runner = Runner(workload, args.seconds, host)
    (raw,), (scaled,) = runner.loop([workload.request])
    if cli and raw:
        # Commands are child processes: one factor for the whole run, the
        # median of its kernel timings, instead of one per command.
        kernel = statistics.median(runner.kernel_s)
        scaled = [hostspeed.scaled(t, kernel) for t in raw]
    metrics = {}
    if scaled:
        p50 = statistics.median(scaled)
        metrics = {
            "solve_s.p50": (p50, "s"),
            "solve_s.p10": (p10(scaled), "s"),
            "mnodes_per_s": (workload.nodes / p50 / 1e6, "Mnode/s"),
        }
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_mem_mib"] = (peak, "MiB")
    if runner.errors:
        metrics["max_rel_err"] = (max(runner.errors), "1")
    print(f"{args.workload}: seed {args.seed}, {len(raw)} timed requests")
    if raw:
        slowdown = statistics.median(runner.kernel_s) / hostspeed.REFERENCE_S
        print(f"raw wall time: p50 {statistics.median(raw):.4f} s, "
              f"p10 {p10(raw):.4f} s, set-up {setup_raw:.4f} s; "
              f"calibration kernel {slowdown:.3f}x its reference time")
    return finish(runner, metrics)


def run_traced(args, workload, workdir: Path, host) -> dict:
    import freepoisson as fp
    import workloads
    from tracing import MISSING, Tracer

    cli = args.workload == "plane2d_cli"
    request = in_process_cli(workload) if cli else workload.request
    if not cli:
        workload.request(workload.next_input())  # warm-up: lazy imports
    memory = Tracer()
    memory.track_memory = True
    memory.install()
    try:
        with memory.request(0):
            request(workload.next_input())
    finally:
        memory.uninstall()

    tracer = Tracer()
    tracer.peaks = memory.peaks
    counter = iter(range(1 << 30))

    def traced(inp):
        tracer.install()
        try:
            with tracer.request(next(counter)):
                return request(inp)
        finally:
            tracer.uninstall()

    # Traced and untraced requests alternate, so a slow spell on a shared
    # host hits both; the difference of their medians is the overhead.
    runner = Runner(workload, args.seconds, host)
    (traced_raw, untraced_raw), (traced_s, untraced_s) = runner.loop([traced, request])
    metrics, missing = tracer.layer_metrics()
    not_measured = []
    if traced_s and untraced_s:
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(untraced_s), "s")

    if cli:
        rho = fp.read_pgrid(workload.rho_path)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fp.boundary_values_fast(rho, 1)
            times.append(time.perf_counter() - start)
        metrics["boundary.time_1thread_s"] = (statistics.median(times), "s")
        times = []
        env = workloads.python_env(ROOT, THREAD_CAPS)
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import freepoisson.cli"], env=env,
                           check=True, timeout=CHILD_TIMEOUT_S)
            times.append(time.perf_counter() - start)
        metrics["cli.startup_s"] = (statistics.median(times), "s")
        written = workload.out_path.stat().st_size / 2**20
        metrics["pgrid.written_mib"] = (written, "MiB")
    else:
        for name, unit in (("boundary.time_1thread_s", "s"), ("cli.startup_s", "s"),
                           ("pgrid.written_mib", "MiB")):
            metrics[name] = (MISSING, unit)
            not_measured.append(name)

    print(f"{args.workload}: seed {args.seed}, {len(traced_raw)} traced and "
          f"{len(untraced_raw)} untraced requests")
    if traced_raw and untraced_raw:
        print(f"raw wall time p50: traced {statistics.median(traced_raw):.4f} s, "
              f"untraced {statistics.median(untraced_raw):.4f} s")
    report_trace(args, tracer, missing, not_measured)
    return finish(runner, metrics)


def report_trace(args, tracer, missing, not_measured) -> None:
    """Print the self-time table and write every span to the results dir."""
    selfs = tracer.self_times()
    spans = tracer.request_spans()
    names = sorted({n for t in selfs.values() for n in t})
    print("median self time per request:")
    for name in names:
        print(f"  {name:40s} {statistics.median(t.get(name, 0.0) for t in selfs.values()):.6f} s")
    worst = max(
        abs(sum(selfs[i].values()) - next(s for s in sp if s.parent is None).duration)
        for i, sp in spans.items()
    ) if spans else 0.0
    print(f"largest |sum of self times - request time| over requests: {worst:.3e} s")
    for name in missing:
        print(f"missing: {name} (its wrappers saw no calls; reported as -1)")
    for name in not_measured:
        print(f"missing: {name} (measured on plane2d_cli only; reported as -1)")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.to_json()))
    print(f"spans written to {path.relative_to(ROOT)}")


def finish(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind normally: subprocess.run kills and reaps the child
    # it waits for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "freepoisson" / "__init__.py").is_file():
        print(f"error: no freepoisson source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.setup_probe:
        setup_probe(args)
        return 0
    import hostspeed
    import workloads

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        run = run_traced if args.trace else run_end_to_end
        result = run(args, workload, workdir, hostspeed.HostSpeed())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
