"""Workloads of the groupcut benchmark.

There are two workloads.  ``library`` runs three groups of library cases
in one process, ``staircase``, ``fine_grid`` and ``certify``, each chosen to
load a different layer; ``cli`` runs one CLI process per command.  (The
groups were first four workloads of their own; on a shared two-core
machine the short runs that four workloads allow within an hour spread by
more than the bounds, so the groups share one workload with longer runs,
and the traced run still reports each group's layer shares.)

A workload is a list of cases.  A case is one closed-loop operation: one
library call (or a short fixed sequence of calls) or one CLI process.  The
benchmark times ``Case.op`` alone; inputs are built before the pass, or, for
cases that consume an earlier case's output in the same pass, by
``Case.inputs`` outside the timed region.  ``Case.check`` is the
correctness gate: it returns ``None`` for a correct output and a reason
otherwise.

Every library call goes through the ``groupcut`` package at call time, so
the span tracer's wrappers, when installed, see it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Dict, List, Optional, Tuple

import groupcut as gc
from groupcut import cli, serialize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

F45 = F(4, 5)

# Baseline counts of the uncut inputs, from the ROADMAP profile.  They are
# checked in the traced run, where the spans carry the counts.
BASELINE_COUNTS = {
    "psi_4": {
        "complex2d.enumerate_faces.faces": 10409,
        "complex2d.additivity_report.additive_faces": 1617,
        "solver.perturbation_space.runs": 10805,
    },
    "gmic_1999_2000": {"solver.perturbation_space.unit_unions": 17997012},
}


@dataclass
class Case:
    id: str
    op: Callable
    args: Tuple = ()
    # Builds the arguments from the outputs of earlier cases of the pass.
    inputs: Optional[Callable[[Dict[str, object]], Tuple]] = None
    check: Callable[[Tuple, object], Optional[str]] = lambda args, out: None


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def verdict_digest(verdict) -> str:
    """sha256 of the canonical verdict JSON, certificate included."""
    if isinstance(verdict, gc.MinimalityVerdict):
        doc = serialize.minimality_verdict_json(verdict)
    else:
        doc = serialize.extremality_verdict_json(verdict)
        if verdict.certificate is not None:
            doc = {"verdict": doc, "certificate": serialize.certificate_json(verdict.certificate)}
    return sha256(serialize.dumps(doc))


def _digest_check(expected: Dict[str, str], case_id: str) -> Callable:
    want = expected.get(case_id)

    def check(args, out) -> Optional[str]:
        got = verdict_digest(out)
        if got != want:
            return f"verdict digest {got[:12]} != expected {str(want)[:12]}"
        return None

    return check


def psi_stages_45() -> List[gc.PwlPeriodic]:
    params = gc.PsiParams(F45, tuple(gc.generate_eps(F45, 4)))
    return gc.psi_stages(params)


def _extremality(fn):
    return gc.extremality_test(fn)


# -- staircase ---------------------------------------------------------------
# Why: extreme two-slope functions whose breakpoint count grows (2 to 16, and
# the projected merge) while the denominator stays small (q <= 160).  The
# 2-D complex (face enumeration and additivity classification) is about 90%
# of the time; the solver a few percent.  An optimisation of complex2d moves
# this workload and leaves fine_grid unchanged.


def staircase(expected) -> List[Case]:
    stages = psi_stages_45()
    fns = {f"psi_{k}": stages[k] for k in range(4)}
    fns["psm_gmic_1_5_n2"] = gc.projected_sequential_merge(gc.gmic(F(1, 5)), 2)
    return [
        Case(name, _extremality, (fn,), check=_digest_check(expected, name))
        for name, fn in fns.items()
    ]


# -- fine_grid ---------------------------------------------------------------
# Why: gmic((d-1)/d) has two breakpoints, but the oversampled grid has
# n = 3d points, and the solver's union-find does O(n^2) unit unions.  The
# solver is over 90% of the time and complex2d about 1%: this is where cost
# tracks the denominator instead of the breakpoint count.

FINE_GRID_DENOMINATORS = (300, 500, 700)


def fine_grid(expected) -> List[Case]:
    cases = []
    for d in FINE_GRID_DENOMINATORS:
        name = f"gmic_{d - 1}_{d}"
        cases.append(
            Case(name, _extremality, (gc.gmic(F(d - 1, d)),), check=_digest_check(expected, name))
        )
    return cases


# -- certify -----------------------------------------------------------------
# Why: the same layers on inputs that fail.  Non-extreme functions go through
# the certificate path (basis reduction, epsilon ratio test, epsilon-halving
# minimality re-checks); non-minimal ones through witness search and
# verify_witness; discontinuous ones through the face-based limit path; and
# the finite-group side through its O(n^2) loops.  An optimisation that helps
# the extreme path at the expense of certificates or witnesses shows here.

LAMBDAS = (F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4))
MULTIPLIERS = (F(3, 2), F(2), F(5, 2), F(3))
COMBO_STAGES = (1, 2, 3)
# The discontinuous combinations and finite restrictions stay at stages 1-2:
# at stage 3 they would take 3 s of every pass.
SMALL_STAGES = (1, 2)


def jump_function() -> gc.PwlPeriodic:
    """x -> 5x/4 with a jump at 0: minimal-looking but not symmetric."""
    return gc.make_pwl(F45, [0], [(F(5, 4), 0, 0)])


def _is_minimal(fn) -> bool:
    return gc.minimality_test(fn).minimal


def _check_certificate(args, verdict) -> Optional[str]:
    (fn,) = args
    if verdict.extreme or verdict.certificate is None:
        return "strict convex combination reported extreme"
    cert = verdict.certificate
    if cert.pi_plus == cert.pi_minus:
        return "certificate perturbation is zero"
    if not (_is_minimal(cert.pi_plus) and _is_minimal(cert.pi_minus)):
        return "certificate endpoint is not minimal"
    if gc.affine_combine(F(1, 2), cert.pi_plus, F(1, 2), cert.pi_minus) != fn:
        return "certificate endpoints do not average back to the input"
    return None


def _check_witness(fn, verdict, allowed_kinds) -> Optional[str]:
    if verdict.minimal:
        return None
    w = verdict.witness
    if w is None or w.kind not in allowed_kinds:
        return f"unexpected witness {w!r}"
    if not gc.verify_witness(fn, w):
        return "witness does not verify"
    return None


def _perturbed_pair(plus, minus):
    return gc.minimality_test(plus), gc.minimality_test(minus)


def _check_perturbed(args, out) -> Optional[str]:
    # fn + c*p and fn - c*p with c > 1 stay symmetric; the epsilon ratio test
    # is tight on one side, so at least one of them is not subadditive.
    for fn, verdict in zip(args, out):
        problem = _check_witness(fn, verdict, ("subadditivity",))
        if problem:
            return problem
    if all(v.minimal for v in out):
        return "both perturbed functions are minimal"
    return None


def _minimality_then_verify(fn):
    verdict = gc.minimality_test(fn)
    verified = verdict.witness is not None and gc.verify_witness(fn, verdict.witness)
    return verdict, verified


def _check_limit_witness(args, out) -> Optional[str]:
    verdict, verified = out
    if verdict.minimal or not verified:
        return "combination with a non-symmetric jump function was not refuted"
    return None


def _finite_extremality(fn, q):
    return gc.finite_extremality_test(gc.restrict_to_finite_group(fn, q, 3))


def _check_oracle(args, out) -> Optional[str]:
    (fn,) = args
    if out.minimal != gc.minimality_test(fn).minimal:
        return "grid oracle disagrees with the vertex test"
    return None


def certify(rng: random.Random) -> List[Case]:
    stages = psi_stages_45()
    g = gc.gmic(F45)
    cases: List[Case] = []
    combos = {}

    # 1. Strict convex combinations: non-extreme, certified.
    for k in COMBO_STAGES:
        lam = rng.choice(LAMBDAS)
        combos[k] = gc.affine_combine(lam, g, 1 - lam, stages[k])
        cases.append(Case(f"combo_k{k}", _extremality, (combos[k],), check=_check_certificate))

    # 2. fn +- c * (certificate perturbation), c > 1: symmetric, not subadditive.
    perturbed_stages = sorted(rng.sample(COMBO_STAGES, 2))
    perturbed = {}
    for k in perturbed_stages:
        c = rng.choice(MULTIPLIERS)

        def build(ctx, k=k, c=c):
            pert = ctx[f"combo_k{k}"].certificate.perturbation
            pair = tuple(gc.affine_combine(1, combos[k], s * c, pert) for s in (1, -1))
            perturbed[k] = pair
            return pair

        cases.append(Case(f"perturbed_k{k}", _perturbed_pair, inputs=build, check=_check_perturbed))

    # 3. Combinations with a discontinuous function that is not symmetric:
    # the face-based limit path of the vertex test, then verify_witness.
    for k in SMALL_STAGES:
        lam = rng.choice(LAMBDAS)
        fn = gc.affine_combine(lam, jump_function(), 1 - lam, stages[k])
        cases.append(
            Case(f"discontinuous_k{k}", _minimality_then_verify, (fn,), check=_check_limit_witness)
        )

    # 4. Finite restrictions at m = 3: verdicts agree with the infinite test.
    def finite_check(k):
        def check(args, out) -> Optional[str]:
            if out.extreme:
                return f"finite restriction of combo_k{k} is extreme, infinite test says not"
            return None

        return check

    for k in SMALL_STAGES:
        q = combos[k].denominator_lcm()
        cases.append(
            Case(f"finite_k{k}", _finite_extremality, (combos[k], q), check=finite_check(k))
        )

    # 5. Grid oracle cross-check on the continuous inputs of this pass.
    for k in COMBO_STAGES:
        cases.append(Case(f"oracle_combo_k{k}", gc.minimality_grid_oracle, (combos[k],), check=_check_oracle))
    for k in perturbed_stages:
        cases.append(
            Case(
                f"oracle_perturbed_k{k}",
                gc.minimality_grid_oracle,
                inputs=lambda ctx, k=k: (perturbed[k][0],),
                check=_check_oracle,
            )
        )
    return cases


def library(seed: int, expected) -> List[Case]:
    """All three groups: the seed reorders the extreme cases and draws the
    certify inputs.  Certify cases keep their order, since later ones
    consume earlier outputs of the same pass."""
    rng = random.Random(seed)
    extreme = staircase(expected) + fine_grid(expected)
    rng.shuffle(extreme)
    return extreme + certify(rng)


def case_group(case_id: str) -> str:
    """The group a library case belongs to."""
    if case_id.startswith(("psi_", "psm_")):
        return "staircase"
    if case_id.startswith("gmic_"):
        return "fine_grid"
    return "certify"


# -- cli ---------------------------------------------------------------------
# Why: what a shell user waits for, one process per command from start to
# exit: interpreter start and import, argument parsing, JSON and SVG
# serialization, plus the library work.  The only workload that measures
# serialize, svg and the import.

CLI_INPUTS = {
    # name: list of construct commands; the last one's stdout is the input.
    "psi_3": [["construct", "psi_n", "--f", "4/5", "--n", "3"]],
    "midpoint": [
        ["construct", "gmic", "--f", "4/5"],
        ["construct", "psi_n", "--f", "4/5", "--n", "1"],
        ["apply", "combine", "{0}", "--a", "1/2", "--b", "1/2", "--other", "{1}"],
    ],
}


def child_env() -> Dict[str, str]:
    """Environment for a child Python process that imports groupcut from src/."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Runs the CLI as ``python -m groupcut.cli`` does, then writes the process's
# own peak resident memory (VmHWM, in kB) to stderr.  The parent cannot get
# it from getrusage: a child's ru_maxrss also counts the parent's memory,
# which the child shares between fork and exec.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("groupcut.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        hwm = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("vmhwm_kb %s\\n" % hwm[0])
"""


class CliRunner:
    """Runs groupcut CLI commands, as subprocesses or in-process."""

    def __init__(self, workdir: str, in_process: bool = False):
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env()
        self.peak_rss_kb = 0  # largest VmHWM of the CLI processes run

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run(self, argv: List[str]) -> Tuple[int, bytes]:
        if self.in_process:
            import contextlib
            import io

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue().encode("utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        )
        for line in proc.stderr.splitlines():
            if line.startswith(b"vmhwm_kb "):
                self.peak_rss_kb = max(self.peak_rss_kb, int(line.split()[1]))
        return proc.returncode, proc.stdout


def cli_commands() -> List[Tuple[str, List[str], Optional[str], Optional[str]]]:
    """(case id, argv, file the stdout is saved to, extra output file)."""
    out = []
    for name, constructs in CLI_INPUTS.items():
        saved = []
        for i, argv in enumerate(constructs):
            target = f"{name}.fn{i}.json"
            out.append((f"{name}/{argv[0]}{i}", [a.format(*saved) for a in argv], target, None))
            saved.append(target)
        fn = saved[-1]
        cert = f"{name}.cert.json"
        out.append((f"{name}/test_minimality", ["test", "minimality", fn], None, None))
        out.append(
            (f"{name}/test_extremality", ["test", "extremality", fn, "--certificate", cert], None, cert)
        )
        out.append((f"{name}/plot_diagram", ["plot", "diagram", fn], None, None))
        out.append((f"{name}/restrict", ["restrict", fn, "--q", "10", "--m", "3"], None, None))
    return out


def cli_digest(runner: CliRunner, stdout: bytes, extra: Optional[str]) -> str:
    """sha256 of a command's stdout, chained with its extra output file."""
    digest = sha256(stdout)
    if extra is not None:
        with open(runner.path(extra), "rb") as handle:
            digest = sha256(digest + sha256(handle.read()))
    return digest


def cli_workload(seed: int, expected, runner: CliRunner) -> List[Case]:
    cases = []
    for case_id, argv, save_to, extra in cli_commands():
        # File arguments are names in the work directory.
        argv = [runner.path(a) if a.endswith(".json") else a for a in argv]

        def op(argv=argv, save_to=save_to):
            rc, stdout = runner.run(argv)
            if save_to is not None:
                with open(runner.path(save_to), "wb") as handle:
                    handle.write(stdout)
            return rc, stdout

        def check(args, out, extra=extra, want=expected.get(case_id)) -> Optional[str]:
            rc, stdout = out
            if rc != 0:
                return f"exit code {rc}"
            got = cli_digest(runner, stdout, extra)
            if got != want:
                return f"output digest {got[:12]} != expected {str(want)[:12]}"
            return None

        cases.append(Case(case_id, op, check=check))
    # The commands of one input form a chain, so only whole inputs reorder.
    order = list(CLI_INPUTS)
    random.Random(seed).shuffle(order)
    return sorted(cases, key=lambda c: order.index(c.id.split("/")[0]))
