"""End-to-end benchmark of the statesum3d command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a fixed list of real CLI commands (see ``inputs.py``),
run in this process through ``statesum3d.cli.run``, back to back by one
client (a closed loop).  Every command's exit code and exact results are
checked against ``expected.json``.

With ``--trace 0`` the command list is run again and again for S seconds
and the last line of standard output is a JSON object with the end-to-end
metrics:

* ``solve_s``: time the command list takes, in nominal seconds (below):
  the sum over the commands of each command's median over the passes;
* ``setup_s``: median over fresh processes, started between the passes,
  of the time from process start to the first command being ready
  (interpreter start, ``statesum3d`` import, writing the generated
  inputs), in nominal seconds;
* ``peak_rss_mib``: peak resident memory of this process;
* ``passed_ratio``: commands that exited 0 with the recorded results,
  over commands attempted.

Nominal seconds.  On the 2-vCPU Xeon virtual machine the benchmark was
written on, the host's speed changes by up to 1.5 times, both within a
second and over minutes (other tenants on shared cores); the median pass
of ``closed-grown`` spread by a fifth (quartile distance over median)
between 30-second runs.  So a fixed stdlib loop (``reference_loop``,
Fraction arithmetic, no statesum3d code) runs before every command and
after the last one, and each command's time is scaled by
``REFERENCE_NOMINAL_S`` over the mean of the two loops around it: the time
the command would take on the uncontended host.  With this scaling the
spread over six runs fell from 0.18 to 0.05 on ``closed-grown`` and from
0.16 to 0.01 on ``relative-graphs``.  A change to statesum3d cannot move
the loop, so it moves the scaled time as much as the raw one.  The raw
pass and set-up times are kept in the metadata line.

With ``--trace 1`` untraced passes run for half of S, then one pass runs
with the wrappers of ``tracer.py`` installed, and the metrics are per
layer.  Its spans are written to ``.perfbench/trace-<workload>-seed<N>.json``.
The line before the last holds run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from inputs import WORKLOADS, canonical, load_expected, make_cases
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# reference_loop() on the uncontended host: 5th percentile of 1,900 loops
# on the 2-vCPU Xeon virtual machine the benchmark was written on
REFERENCE_NOMINAL_S = 0.0025


class MissingPackage(Exception):
    pass


def import_package():
    """Import statesum3d from this checkout's ``src/``."""
    if not (SRC / "statesum3d" / "__init__.py").is_file():
        raise MissingPackage(f"no statesum3d package under {SRC}")
    sys.path.insert(0, str(SRC))
    from statesum3d import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingPackage(f"statesum3d imported from {cli.__file__}, not {SRC}")


def execute(case):
    """Run one command in this process; returns (exit code, report, seconds)."""
    from statesum3d import cli
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(["--json", *case.argv])
    except Exception:
        # a traceback is a failed command, not the end of the run
        traceback.print_exc()
        code = 1
    seconds = time.perf_counter() - start
    report = json.loads(out.getvalue()) if code == 0 else None
    return code, report, seconds


def reference_loop() -> float:
    """Seconds a fixed stdlib loop of Fraction arithmetic and dict updates
    takes; it shares no code with statesum3d."""
    start = time.perf_counter()
    table = {}
    for i in range(1, 600):
        q = Fraction(i * 7919 % 104729, i)
        table[i % 64, i % 7] = q * q + q
    return time.perf_counter() - start


def nominal(seconds, before, after) -> float:
    """``seconds`` measured between two reference loops, scaled to the
    uncontended host."""
    return seconds * REFERENCE_NOMINAL_S * 2 / (before + after)


def run_pass(cases, expected, tracer=None):
    """Run the command list once; returns (raw seconds of the pass, nominal
    seconds of each command, failures)."""
    raw, scaled, failed = 0.0, [], 0
    before = reference_loop()
    for request, case in enumerate(cases, 1):
        if tracer is not None:
            tracer.request = request
        code, report, seconds = execute(case)
        after = reference_loop()
        raw += seconds
        scaled.append(nominal(seconds, before, after))
        before = after
        if code != 0 or canonical(case.argv[0], report["results"]) != \
                expected["cases"].get(case.key):
            failed += 1
            print(f"FAILED (exit {code}): statesum3d {' '.join(case.argv)}", file=sys.stderr)
    return raw, scaled, failed


def timed_setup(workload, seed, workdir):
    """Time from starting a fresh process until it has imported the
    package and written the workload's inputs, as (raw, nominal) seconds.
    The child prints the system-wide monotonic clock when it is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-into", str(workdir)]
    before = reference_loop()
    start = time.monotonic()
    child = subprocess.run(argv, cwd=ROOT, check=True, timeout=120,
                           capture_output=True, text=True)
    seconds = float(child.stdout.split()[-1]) - start
    return seconds, nominal(seconds, before, reference_loop())


def measure(workload, seed, seconds, trace, expected, workdir):
    """Run the workload; returns (metrics, attempted, failed, metadata)."""
    tracer = Tracer() if trace else None
    with _installed(tracer):
        cases = make_cases(workload, seed, workdir / "inputs", expected)
    budget = seconds / 2 if trace else seconds
    passes, setups, attempted, failed = [], [], 0, 0

    def sample_setup():
        setups.append(timed_setup(workload, seed, workdir / f"setup{len(setups)}"))

    start = time.perf_counter()
    while not passes or \
            time.perf_counter() - start + statistics.median(p[0] for p in passes) <= budget:
        # set-up samples are spread over the run, one before each pass
        if not trace and len(setups) < SETUP_REPEATS:
            sample_setup()
        raw, scaled, bad = run_pass(cases, expected)
        passes.append((raw, scaled))
        attempted += len(cases)
        failed += bad
    while not trace and len(setups) < SETUP_REPEATS:
        sample_setup()
    meta = {"commands_per_pass": len(cases), "pass_s": [p[0] for p in passes],
            "pass_nominal_s": [sum(p[1]) for p in passes]}
    if trace:
        with _installed(tracer):
            raw, scaled, bad = run_pass(cases, expected, tracer)
        attempted += len(cases)
        failed += bad
        metrics = tracer.metrics(raw, sum(scaled) / statistics.median(meta["pass_nominal_s"]))
        trace_path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "solve_s": (sum(statistics.median(column)
                             for column in zip(*(p[1] for p in passes))), "s"),
            "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "passed_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        meta["setup_s"] = [raw for raw, _ in setups]
        meta["setup_nominal_s"] = [scaled for _, scaled in setups]
    meta["failed_ratio"] = failed / attempted
    return metrics, attempted, failed, meta


@contextlib.contextmanager
def _installed(tracer):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def machine_facts(seed) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "commit": _commit(), "seed": seed, "src_lines": src_lines}


def _commit():
    """HEAD of the checkout's own git directory, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        import_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    expected = load_expected()
    if args.setup_into is not None:
        make_cases(args.workload, args.seed, args.setup_into, expected)
        print(time.monotonic())
        return 0
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failed, meta = measure(
            args.workload, args.seed, args.seconds, args.trace, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(machine_facts(args.seed), workload=args.workload, trace=args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
