"""Benchmark command for extsq: run one workload for a fixed time.

    python3 perfbench/run.py --workload {suite,decomp,unfold,analytic} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; it imports ``extsq`` from ``src/``
and exits with an error if that is missing.  One caller drives the public
API in a closed loop from this single process: each pass starts after the
previous one ends, and no extra threads run.  Every pass checks every
output (see ``workloads.py``).

With ``--trace 0`` the end-to-end metrics are measured with tracing off:

* ``wall_s``: median seconds of one warm pass over ``--seconds``, at the
  reference speed of ``hostspeed.py``, which takes out the slow spells of
  a shared host;
* ``setup_s``: median, over five or more fresh interpreters started between
  the passes, of the seconds from process start until the workload is
  ready (``import extsq``, its inputs, and the first quadrature call where
  the workload makes one), at the reference speed of the run's mean
  host-speed sample;
* ``peak_rss_mb``: peak resident memory of this process, which is itself a
  fresh interpreter that set up and ran the workload.

With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics (``spans.py``) are medians over the traced passes; the
spans are written to ``.perfbench_spans/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics for a reader, with ``fail_frac`` and the quartiles.
The exit status is 0 when every output was correct and 1 otherwise.
"""

import argparse
import contextlib
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_spans"
PROBES = 5
PROBE_ROUND_S = 0.6
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("suite", "decomp", "unfold", "analytic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe failed with status {status}: {line!r}")
    return elapsed


def probe_round(workload: str, seed: int) -> list:
    """One probe, and more while the round is shorter than ``PROBE_ROUND_S``,
    so that cheap set-ups get more probes."""
    times = [probe_setup(workload, seed)]
    while sum(times) < PROBE_ROUND_S:
        times.append(probe_setup(workload, seed))
    return times


def _timed_pass(workload, tally, sampler=None) -> float:
    """Seconds of one pass, after a full collection.

    With a ``hostspeed.Sampler``, it samples during the pass only, and the
    time its samples took comes off the result.
    """
    gc.collect()
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        workload.run_pass(tally)
        elapsed = time.perf_counter() - t0
    return elapsed - sampler.spent if sampler else elapsed


def _more(times, deadline, minimum) -> bool:
    """Start another round unless its median length would pass the deadline."""
    if len(times) < minimum:
        return True
    return time.perf_counter() + statistics.median(times) <= deadline


def run_untraced(workload, tally, seconds, name, seed):
    """Alternate warm passes with rounds of set-up probes.

    The probes are spread over the whole window, as the passes are.  A
    ``hostspeed.Sampler`` runs during each pass.  Returns the pass times as
    measured and at the reference speed, the probe times as measured, and
    the mean host-speed sample of the whole run.
    """
    deadline = time.perf_counter() + seconds
    measured, scaled, setups, samples, cycles = [], [], [], [], []
    while _more(cycles, deadline, MIN_PASSES):
        t0 = time.perf_counter()
        sampler = hostspeed.Sampler()
        elapsed = _timed_pass(workload, tally, sampler)
        measured.append(elapsed)
        scaled.append(sampler.to_reference(elapsed))
        samples += sampler.samples
        setups += probe_round(name, seed)
        cycles.append(time.perf_counter() - t0)
    while len(setups) < PROBES:
        setups.append(probe_setup(name, seed))
    return measured, scaled, setups, statistics.fmean(samples)


def run_traced(workload, tally, seconds):
    """Alternate untraced and traced passes.

    Returns the per-layer metrics, the median over untraced passes of the
    slowest instance, and the tracer holding every span.
    """
    import spans

    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, per_pass, slowest = [], [], [], []
    while _more([a + b for a, b in zip(plain, traced)], deadline, 1):
        first = len(tally.instance_s)
        plain.append(_timed_pass(workload, tally))
        slowest.append(max(tally.instance_s[first:]))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(_timed_pass(workload, tally))
        finally:
            tracer.uninstall()
        per_pass.append(spans.layer_metrics(tracer.spans, first))
    metrics = spans.median_metrics(per_pass)
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    return metrics, statistics.median(slowest), tracer


def _quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _environment() -> str:
    # the version from the package metadata: importing scipy here would put
    # it into the peak memory of workloads that never load it
    return (f"python {platform.python_version()} scipy {importlib.metadata.version('scipy')} "
            f"nproc {os.cpu_count()}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "extsq" / "__init__.py").is_file():
        print(f"error: no extsq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload, first_quad_s = workloads.prepare(args.workload, args.seed)
    tally = workloads.Tally()
    print(f"# {_environment()}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics, slowest, tracer = run_traced(workload, tally, args.seconds)
        metrics["specialfn.first_quad_s"] = first_quad_s
        metrics["decomp.instance_max_s"] = slowest if args.workload == "decomp" else 0.0
        import spans

        units = dict(spans.per_layer_metric_names())
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        for name, unit in units.items():
            print(f"{name}\t{metrics[name]}\t{unit}")
    else:
        measured, scaled, setups, speed = run_untraced(
            workload, tally, args.seconds, args.workload, args.seed)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the probes ran between the passes, so the run's mean sample is
        # the host speed they saw too
        to_reference = hostspeed.REF_S / speed
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setups) * to_reference,
            "peak_rss_mb": peak_mb,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        q1, q3 = _quartiles(scaled)
        print(f"wall_s\t{metrics['wall_s']:.4f} s\tmedian of {len(scaled)} passes at "
              f"reference speed, quartiles {q1:.4f}..{q3:.4f}; as measured, median "
              f"{statistics.median(measured):.4f}")
        q1, q3 = _quartiles(setups)
        print(f"setup_s\t{metrics['setup_s']:.4f} s\tmedian of {len(setups)} probes at "
              f"reference speed; as measured, median {statistics.median(setups):.4f}, "
              f"quartiles {q1:.4f}..{q3:.4f}")
        print(f"peak_rss_mb\t{peak_mb:.1f} MB")
    print(f"fail_frac\t{tally.failed / tally.attempted:.4f} ratio\t"
          f"{tally.failed} of {tally.attempted} instances, {tally.refused} refused")
    if tally.verdicts:
        print(f"# holomorphy_check: a partial product vanishes at a pole, confirmed "
              f"by recount, on {tally.verdicts} instances")
    if args.workload == "suite":
        print(f"# suite report md5 {workload.report_md5}")
    for line in tally.wrong[:20]:
        print(f"# WRONG {line}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
