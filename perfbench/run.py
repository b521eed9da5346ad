"""groupcut benchmark: end-to-end timings, correctness gate, per-layer trace.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Load is one single-threaded closed loop: each call (or CLI
process) starts only after the previous one returned.  Passes over the
workload's cases repeat until ``--seconds`` have been measured.

Times are reported in seconds at a fixed reference speed: a speed probe
is timed before every case, and each pass's wall times are scaled by
``REF_NOMINAL_S`` over the median probe time of that pass (see
``PROBE_MAIN``).  Raw wall times are in the detailed report.

With ``--trace 0`` the end-to-end metrics are reported, all with tracing
off.  With ``--trace 1`` half the time runs untraced passes and half runs
traced ones, and the per-layer metrics are reported; spans are written to
``.perfbench_out/``.  The last line of stdout is the result object; the
line before it is a detailed report (sample counts, percentiles,
provenance, failures).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("library", "cli")
SETUP_SAMPLES = 15
SETUP_PER_PASS = 3
MIN_PASSES = 3
MAX_FAILURES_LISTED = 20
# Median time of the speed probe on the 2-vCPU Intel Xeon virtual machine
# the benchmark was written on (Python 3.11).  It only sets the scale:
# there, reported seconds are close to wall seconds.
REF_NOMINAL_S = 0.020

# Per-layer metrics: (reported name, key produced by tracer.summarize, unit).
PER_LAYER = [
    ("complex2d.enumerate_faces.calls", None, "count"),
    ("complex2d.enumerate_faces.self_s", None, "s"),
    ("complex2d.enumerate_faces.faces", None, "count"),
    ("complex2d.additivity_report.calls", None, "count"),
    ("complex2d.additivity_report.self_s", None, "s"),
    ("complex2d.additivity_report.additive_faces", None, "count"),
    ("complex2d.delta_vertices.self_s", None, "s"),
    ("complex2d.delta_vertices.vertices", None, "count"),
    ("solver.perturbation_space.calls", None, "count"),
    ("solver.perturbation_space.self_s", None, "s"),
    ("solver.grid_n", "solver.perturbation_space.grid_n", "count"),
    ("solver.runs", "solver.perturbation_space.runs", "count"),
    ("solver.unit_unions", "solver.perturbation_space.unit_unions", "count"),
    ("solver.basis_dim", "solver.perturbation_space.basis_dim", "count"),
    ("extremality.extremality_test.calls", None, "count"),
    ("extremality.extremality_test.self_s", None, "s"),
    ("extremality.extremality_test.total_s", None, "s"),
    ("extremality.epsilon_ratio_test.self_s", None, "s"),
    ("extremality.minimality_rechecks", None, "count"),
    ("rational.rref.calls", None, "count"),
    ("rational.rref.self_s", None, "s"),
    ("rational.nullspace.calls", None, "count"),
    ("rational.nullspace.self_s", None, "s"),
    ("minimality.minimality_test.calls", None, "count"),
    ("minimality.minimality_test.self_s", None, "s"),
    ("minimality.verify_witness.self_s", None, "s"),
    ("minimality.minimality_grid_oracle.self_s", None, "s"),
    ("finite.finite_minimality_test.self_s", None, "s"),
    ("finite.finite_extremality_test.self_s", None, "s"),
    ("finite.restrict_to_finite_group.self_s", None, "s"),
    ("serialize.dumps.self_s", None, "s"),
    ("serialize.loads.self_s", None, "s"),
    ("serialize.out_bytes", "serialize.dumps.out_bytes", "count"),
    ("svg.plot_2d_diagram.self_s", None, "s"),
    ("svg.out_bytes", "svg.plot_2d_diagram.out_bytes", "count"),
    ("cli.main.self_s", None, "s"),
    ("share.complex2d", None, "ratio"),
    ("share.solver", None, "ratio"),
    ("share.certificate", None, "ratio"),
    ("staircase.share.complex2d", None, "ratio"),
    ("fine_grid.share.solver", None, "ratio"),
    ("certify.share.certificate", None, "ratio"),
    ("trace.untraced_pass_s", None, "s"),
    ("trace.traced_pass_s", None, "s"),
]


def _highest_percentile(n: int) -> str:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = "p50"
    for label, p in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if n * (1 - p) >= 10:
            best = label
    return best


def _stat(values):
    values = sorted(values)
    label = _highest_percentile(len(values))
    p = {"p50": 0.5, "p90": 0.9, "p99": 0.99, "p99.9": 0.999}[label]
    index = min(len(values) - 1, int(p * len(values)))
    return {
        "median": statistics.median(values),
        "samples": len(values),
        "percentile": label,
        "percentile_value": values[index],
    }


def _provenance():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as handle:
            loadavg = handle.read().strip()
    except OSError:
        loadavg = None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "loadavg_at_start": loadavg,
    }


# The speed probe runs in a helper process of its own, so that its data
# leaves this process's peak resident memory (a metric) alone.  It reads
# Fractions at scattered places of a list of about 12 MB.  The library
# works on large lists and dicts of small objects, and when a shared host
# got busy its calls slowed about as much as this probe did; probes of
# arithmetic on a small working set slowed about twice as much, in log
# terms (measurements in perfbench/README.md).
PROBE_MAIN = """\
import sys, time
from fractions import Fraction
n = 100000
data = [Fraction(i % 1013, i % 97 + 1) for i in range(n)]
order = [i * 7919 % n for i in range(0, n, 4)]
sys.stdout.write("ready\\n")
sys.stdout.flush()
for _ in sys.stdin:
    start = time.perf_counter()
    acc = 0
    for i in order:
        x = data[i]
        acc += x.numerator * 3 + x.denominator
    sys.stdout.write("%r\\n" % (time.perf_counter() - start))
    sys.stdout.flush()
"""


class Probe:
    """The helper process that times the probe on request."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_MAIN],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("speed probe failed to start")

    def pin(self, cpus) -> None:
        """Run the probe on the CPUs this process runs on."""
        os.sched_setaffinity(self.proc.pid, cpus)

    def time(self) -> float:
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


PROBE = None  # the Probe, while main() runs


def reference_s() -> float:
    """Wall time of one speed probe, on the CPU this process runs on.

    The probe does not touch groupcut, so a change to the library cannot
    move it.  On a shared host the speed of a core drifts by a third or
    more within minutes, for every process alike; timed right beside the
    cases, the probe drifts with them, and dividing by it removes most of
    the drift from the reported times.
    """
    return PROBE.time()


def measure_setup(workload: str, seed: int) -> float:
    """Setup time of one fresh process: until the first case could run.

    For the library workloads the probe imports groupcut, builds the
    workload's inputs and reports ready; for cli it is one ``groupcut list``
    process from start to exit.  The wall time is scaled to the reference
    speed by the mean of two reference probes, one on each side of it.
    """
    import workloads as wl

    if workload == "cli":
        argv = [sys.executable, "-m", "groupcut.cli", "list"]
    else:
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
    ref_before = reference_s()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=wl.child_env(), cwd=ROOT)
    if workload == "cli":
        proc.stdout.read()
        proc.wait()
        elapsed = time.perf_counter() - start
    else:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
        if line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed with exit code {proc.returncode}")
    return elapsed * 2 * REF_NOMINAL_S / (ref_before + reference_s())


def build_cases(workload: str, seed: int, runner=None):
    import workloads as wl

    expected = wl.load_expected().get(workload, {})
    if workload == "cli":
        return wl.cli_workload(seed, expected, runner)
    return wl.library(seed, expected)


@dataclass
class Pass:
    """One pass: each case's wall time, the reference probes beside them,
    and the pass's spans."""

    case_wall_s: List[float]  # wall time of each case's op
    refs: List[float]  # reference_s() before each case and after the last
    lo: int = 0  # the pass's spans are tracer.spans[lo:hi]
    hi: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.case_wall_s)

    @property
    def case_s(self) -> List[float]:
        """Each case's time at the reference speed: its wall time scaled
        by the mean of the probes just before and just after it."""
        return [t * 2 * REF_NOMINAL_S / (self.refs[i] + self.refs[i + 1])
                for i, t in enumerate(self.case_wall_s)]

    @property
    def pass_s(self) -> float:
        return sum(self.case_s)

    @property
    def slowest_case_s(self) -> float:
        return max(self.case_s)

    @property
    def scale(self) -> float:
        """The pass's factor from wall seconds to reference seconds."""
        return self.pass_s / self.wall_s


class Runner:
    """Runs passes over the cases and applies the correctness gate."""

    def __init__(self, cases, tracer=None):
        self.cases = cases
        self.tracer = tracer
        self.cli = None  # the workloads.CliRunner of the cli workload
        self.attempted = 0
        self.failures = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def fail(self, case_id: str, reason: str) -> None:
        self.failures.append({"case": case_id, "reason": reason})

    def run_pass(self, traced: bool = False):
        """One pass; returns the wall time of each case's op and the
        reference probe times.  A probe runs before every case and after
        the last one, outside the timed ops."""
        tracer = self.tracer
        outputs = {}
        refs = []
        times = []
        for case in self.cases:
            self.attempted += 1
            try:
                args = case.args if case.inputs is None else case.inputs(outputs)
            except Exception as exc:  # an earlier case of the pass failed
                self.fail(case.id, f"inputs unavailable: {exc!r}")
                continue
            refs.append(reference_s())
            if traced:
                tracer.case = case.id
                tracer.active = True
            start = time.perf_counter()
            try:
                out = case.op(*args)
            except Exception as exc:
                elapsed = time.perf_counter() - start
                self.fail(case.id, f"raised {exc!r}")
                out = None
            else:
                elapsed = time.perf_counter() - start
            finally:
                if traced:
                    tracer.active = False
            times.append(elapsed)
            if out is None:
                continue
            outputs[case.id] = out
            try:
                problem = case.check(args, out)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if problem:
                self.fail(case.id, problem)
        refs.append(reference_s())
        return times, refs

    def run_for(self, seconds: float, traced: bool = False, min_passes: int = MIN_PASSES,
                between=None):
        """Passes until ``seconds`` are used; ``between`` runs after each pass.

        A pass is not started when it would end more than half a pass
        after the deadline.
        """
        passes = []
        start = time.perf_counter()
        last = 0.0
        while len(passes) < min_passes or time.perf_counter() - start + last / 2 < seconds:
            # Alternate passes (and the processes they start) between the
            # CPUs this process may use: on a shared host each core's speed
            # drifts on its own, and a run should sample all of them alike.
            cpu = {self.cpus[len(passes) % len(self.cpus)]}
            os.sched_setaffinity(0, cpu)
            PROBE.pin(cpu)
            lo = len(self.tracer.spans) if traced else 0
            t0 = time.perf_counter()
            times, refs = self.run_pass(traced)
            last = time.perf_counter() - t0
            hi = len(self.tracer.spans) if traced else 0
            passes.append(Pass(times, refs, lo, hi))
            if between is not None:
                between()
        os.sched_setaffinity(0, self.cpus)
        PROBE.pin(self.cpus)
        return passes


def peak_rss_mb(runner) -> float:
    """Peak resident memory of this process, or of the largest CLI process."""
    if runner.cli is not None:
        return runner.cli.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(args, report):
    # Setup probes follow each pass, so that they sample the same stretch
    # of machine time as the passes.
    setup = []

    def after_pass():
        for _ in range(SETUP_PER_PASS):
            setup.append(measure_setup(args.workload, args.seed))

    runner, cleanup = _make_runner(args)
    try:
        passes = runner.run_for(args.seconds, between=after_pass)
    finally:
        cleanup()
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(args.workload, args.seed))
    pass_times = [p.pass_s for p in passes]
    slowest = [p.slowest_case_s for p in passes]
    report["samples"] = {
        "pass_s": pass_times,
        "slowest_case_s": slowest,
        "setup_s": setup,
        "wall_pass_s": [p.wall_s for p in passes],
        "wall_slowest_case_s": [max(p.case_wall_s) for p in passes],
        "reference_s": [statistics.median(p.refs) for p in passes],
        "case_wall_s": [p.case_wall_s for p in passes],
        "probe_s": [p.refs for p in passes],
    }
    report["stats"] = {
        "setup_s": _stat(setup),
        "pass_s": _stat(pass_times),
        "slowest_case_s": _stat(slowest),
    }
    report["cases"] = len(runner.cases)
    report["throughput_cases_per_s"] = len(runner.cases) / statistics.median(pass_times)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "pass_s": _metric(statistics.median(pass_times), "s"),
        "slowest_case_s": _metric(statistics.median(slowest), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(runner), "MB"),
    }
    return runner, metrics


def _make_runner(args, tracer=None):
    """Runner over the workload's cases, and a cleanup for its files."""
    cli_runner = None
    workdir = None
    if args.workload == "cli":
        import workloads as wl

        workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        cli_runner = wl.CliRunner(workdir, in_process=tracer is not None)
    cases = build_cases(args.workload, args.seed, cli_runner)
    runner = Runner(cases, tracer)
    runner.cli = cli_runner

    def cleanup():
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    return runner, cleanup


def _baseline_check(runner, tracer):
    """Traced runs of the uncut inputs, checked against the ROADMAP counts."""
    import groupcut as gc
    import workloads as wl
    from tracer import summarize

    inputs = {
        "psi_4": wl.psi_stages_45()[4],
        "gmic_1999_2000": gc.gmic(Fraction(1999, 2000)),
    }
    expected = wl.load_expected()["baseline"]
    out = []
    for name, fn in inputs.items():
        runner.attempted += 1
        lo = len(tracer.spans)
        tracer.case = name
        tracer.active = True
        try:
            verdict = gc.extremality_test(fn)
        finally:
            tracer.active = False
        counts = summarize(tracer.spans, lo, len(tracer.spans))
        got = {key: counts.get(key) for key in wl.BASELINE_COUNTS[name]}
        if got != wl.BASELINE_COUNTS[name]:
            runner.fail(name, f"baseline counts {got} != {wl.BASELINE_COUNTS[name]}")
        elif wl.verdict_digest(verdict) != expected.get(name):
            runner.fail(name, "baseline verdict digest differs")
        out.append({"case": name, "counts": got,
                    "seconds": counts["extremality.extremality_test.total_s"]})
    return out


def run_traced(args, report):
    from tracer import Tracer, summarize

    tracer = Tracer()
    tracer.install()
    runner, cleanup = _make_runner(args, tracer)
    try:
        untraced = runner.run_for(args.seconds / 2)
        traced = runner.run_for(args.seconds / 2, traced=True, min_passes=2)
        baseline = _baseline_check(runner, tracer) if args.workload == "library" else None
    finally:
        cleanup()
        tracer.uninstall()
    # Span times are scaled to the reference speed, like the pass times.
    per_pass = [
        {k: v * p.scale if k.endswith("_s") else v
         for k, v in summarize(tracer.spans, p.lo, p.hi).items()}
        for p in traced
    ]
    # Counts (everything but times and shares) must repeat exactly.
    count_keys = sorted({k for s in per_pass for k in s
                         if not k.endswith("_s") and not k.startswith("share.")})
    for key in count_keys:
        seen = {s.get(key, 0) for s in per_pass}
        if len(seen) != 1:
            runner.fail(key, f"count differs between traced passes: {sorted(seen)}")
    untraced_s = statistics.median(p.pass_s for p in untraced)
    traced_s = statistics.median(p.pass_s for p in traced)
    # Each library group's layer shares, from the first traced pass.
    groups = {}
    if args.workload == "library":
        import workloads as wl

        first = traced[0]
        for group in ("staircase", "fine_grid", "certify"):
            shares = summarize(tracer.spans, first.lo, first.hi, lambda case, g=group: wl.case_group(case) == g)
            groups[group] = {k: v for k, v in shares.items() if k.startswith("share.")}
    metrics = {}
    for name, key, unit in PER_LAYER:
        key = key or name
        group = name.split(".")[0]
        if group in ("staircase", "fine_grid", "certify"):
            value = groups.get(group, {}).get(name[len(group) + 1:], 0.0)
        elif name == "trace.untraced_pass_s":
            value = untraced_s
        elif name == "trace.traced_pass_s":
            value = traced_s
        elif unit == "count":
            value = per_pass[0].get(key, 0)
        else:
            value = statistics.median(s.get(key, 0.0) for s in per_pass)
        metrics[name] = _metric(value, unit)
    absent = [name for name, key, _ in PER_LAYER
              if any((key or name).startswith(t + ".") for t in tracer.absent)]
    report["absent"] = absent
    report["traced_passes"] = len(traced)
    report["untraced_passes"] = len(untraced)
    report["tracing_overhead_s"] = traced_s - untraced_s
    report["baseline"] = baseline
    report["shares_by_group"] = groups
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans_path)
    report["spans_file"] = os.path.relpath(spans_path, ROOT)
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="groupcut benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "groupcut", "__init__.py")):
        sys.stderr.write(f"error: no groupcut sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.setup_probe:
        build_cases(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(),
        "load": "closed loop, one single-threaded client",
    }
    global PROBE
    PROBE = Probe()
    try:
        if args.trace:
            runner, metrics = run_traced(args, report)
        else:
            runner, metrics = run_end_to_end(args, report)
    finally:
        PROBE.close()
    report["ops"] = runner.attempted
    report["ops_failed"] = len(runner.failures)
    report["failures"] = runner.failures[:MAX_FAILURES_LISTED]
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
