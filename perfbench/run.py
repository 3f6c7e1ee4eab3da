#!/usr/bin/env python3
"""Benchmark of the sumchoice package, measured from outside it.

    python3 perfbench/run.py --workload kaq_exact --seed 0 --seconds 16 --trace 0

The package is imported from ``src/`` next to this directory; one process,
no threads.  With ``--trace 0`` the run times 5 fresh interpreters setting
the workload up, then repeats whole passes over its cases until
``--seconds`` have elapsed, and reports the end-to-end metrics.  Every case
is timed alone and scaled to a reference machine speed by a calibration
run just before and after it, so that the machine's own speed swings
(up to 2x on a shared 2-core VM) do not read as changes of the code;
``wall_s`` is the sum and ``slowest_case_s`` the largest of the per-case
medians, ``setup_s`` the median scaled set-up time.  The raw seconds are in
the run record.  With ``--trace 1`` it times untraced passes for half of
``--seconds``, then one pass with the package's public functions wrapped
(see ``layers.py``), and reports the per-layer metrics in raw seconds.

Every answer is checked.  The last line of stdout is the JSON result, the
line before it the run record: environment, machine load, seed, fail rate
and per-case times.  Exit 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_PROBES = 5
CAL_ROUNDS = 40
CAL_REFERENCE_S = 0.004  # the calibration's time on the reference machine (README)
END_TO_END = {"wall_s": "s", "slowest_case_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_load() -> dict:
    """Load average and cumulative steal ticks, read-only from /proc."""
    load = _read("/proc/loadavg")
    stat = _read("/proc/stat")
    steal = None
    if stat:
        fields = stat.splitlines()[0].split()
        if fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    return {"loadavg": load.split()[:3] if load else None, "steal_ticks": steal}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def code_hash() -> str:
    """Hash of the package and benchmark sources, keying the count record."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# Calibration work: list-coloring backtracking on the 6-vertex wheel, the
# same kind of Python work as the package (calls, small sets and lists) but
# frozen here, so that no change to the package can change it.
_WHEEL = ((1, 4, 5), (0, 2, 5), (1, 3, 5), (2, 4, 5), (0, 3, 5), (0, 1, 2, 3, 4))


def _colorable(lists) -> bool:
    color = [None] * len(_WHEEL)

    def options(v):
        return [c for c in sorted(lists[v]) if all(color[u] != c for u in _WHEEL[v])]

    def walk(left) -> bool:
        if not left:
            return True
        v = min(left, key=lambda x: (len(options(x)), x))
        for c in options(v):
            color[v] = c
            if walk(left - {v}):
                return True
            color[v] = None
        return False

    return walk(frozenset(range(len(_WHEEL))))


def calibrate() -> float:
    """Current machine speed: the median of three timings of a fixed
    calibration work, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for k in range(CAL_ROUNDS):
            _colorable([frozenset({(k + i) % 3, (k + 2 * i) % 4, 5}) for i in range(6)])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrated:
    """Scales raw seconds measured between two calibrations to seconds at
    the reference speed (the calibration taking ``CAL_REFERENCE_S``)."""

    def __init__(self):
        self.before = calibrate()

    def scale(self, raw_s: float) -> float:
        after = calibrate()
        factor = CAL_REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return raw_s * factor


class Sample(NamedTuple):
    case: str
    raw_s: float
    scaled_s: float
    answer: object


def setup_probe(workload: str, seed: int, cal: Calibrated) -> Sample:
    """Time from starting a fresh interpreter until it reports the workload
    set up (package imported, inputs built, caches filled)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return Sample("setup", elapsed, cal.scale(elapsed), None)


def timed_pass(workload) -> list[Sample]:
    """One pass over the cases, calibrating between cases.  A case that
    raises has the exception as its answer; if the pass itself raises, the
    exception is recorded and the pass ends there."""
    samples = []
    cal = Calibrated()
    it = workload.run_pass()
    while True:
        t0 = time.perf_counter()
        try:
            name, answer = next(it)
        except StopIteration:
            break
        except Exception as exc:  # the pass itself failed; no later case can run
            raw = time.perf_counter() - t0
            samples.append(Sample(f"after_{len(samples)}_cases", raw, cal.scale(raw), exc))
            break
        raw = time.perf_counter() - t0
        samples.append(Sample(name, raw, cal.scale(raw), answer))
    return samples


def timed_passes(workload, seconds: float) -> list[list[Sample]]:
    """Whole passes until ``seconds`` have elapsed; at least one."""
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(workload))
    return passes


def check_passes(workload, passes: list[list[Sample]]) -> list[str]:
    failures = []
    for samples in passes:
        for s in samples:
            if isinstance(s.answer, Exception):
                failures.append(f"{s.case}: raised {s.answer!r}")
                continue
            try:
                reason = workload.checks[s.case](s.answer)
            except Exception as exc:  # a reference that cannot be computed fails the case
                reason = f"check raised {exc!r}"
            if reason is not None:
                failures.append(f"{s.case}: {reason}")
    return failures


def case_medians(passes: list[list[Sample]], field: str = "scaled_s") -> dict[str, float]:
    by_case: dict[str, list[float]] = {}
    for samples in passes:
        for s in samples:
            by_case.setdefault(s.case, []).append(getattr(s, field))
    return {name: statistics.median(v) for name, v in by_case.items()}


def repeat_check(workload: str, seed: int, counts: dict) -> str | None:
    """Compare the count metrics with an earlier traced run of the same code
    and seed, if one left a record; keep the first record."""
    path = STATE / f"counts-{workload}-{seed}.json"
    key = code_hash()
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier is not None and earlier.get("code") == key:
        diff = {k: (earlier["counts"].get(k), v) for k, v in counts.items() if earlier["counts"].get(k) != v}
        return f"counts differ from an earlier traced run: {diff}" if diff else None
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": key, "counts": counts}, sort_keys=True))
    os.replace(tmp, path)
    return None


def cases_run(passes) -> int:
    return sum(len(samples) for samples in passes)


def run_untraced(workload, args) -> tuple[dict, list[str], int, dict]:
    cal = Calibrated()
    setup = [setup_probe(args.workload, args.seed, cal) for _ in range(SETUP_PROBES)]
    passes = timed_passes(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = case_medians(passes)
    values = {
        "wall_s": sum(medians.values()),
        "slowest_case_s": max(medians.values()),
        "setup_s": statistics.median(s.scaled_s for s in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    raw = case_medians(passes, "raw_s")
    detail = {
        "passes": len(passes),
        "raw_wall_s": sum(raw.values()),
        "raw_setup_s": statistics.median(s.raw_s for s in setup),
        "case_median_s": medians,
        "case_median_raw_s": raw,
    }
    return metrics, check_passes(workload, passes), cases_run(passes), detail


def run_traced(workload, args) -> tuple[dict, list[str], int, dict]:
    import layers
    from tracer import Tracer

    untraced = timed_passes(workload, args.seconds / 2)
    rec = layers.Recorder()
    with Tracer(layers.TARGETS, hooks=rec.hooks()) as tracer:
        traced = timed_pass(workload)
    witnesses = rec.witnesses + rec.type2_witnesses
    failures = check_passes(workload, untraced + [traced]) + layers.recheck(witnesses)
    if [(s.case, s.answer) for s in traced] != [(s.case, s.answer) for s in untraced[0]]:
        failures.append("the traced pass answered differently from the untraced one")
    attempted = cases_run(untraced + [traced]) + len(witnesses)
    values = layers.metrics(tracer, rec, {s.case: s.raw_s for s in traced})
    untraced_wall = sum(case_medians(untraced).values())
    values["trace.wall_s"] = sum(s.raw_s for s in traced)
    values["trace.overhead_s"] = sum(s.scaled_s for s in traced) - untraced_wall
    mismatch = repeat_check(args.workload, args.seed, layers.counts(values))
    if mismatch:
        failures.append(mismatch)
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS.items()}
    detail = {"untraced_passes": len(untraced), "untraced_wall_s": untraced_wall,
              "witnesses_rechecked": len(witnesses),
              "case_raw_s": {s.case: s.raw_s for s in traced}}
    return metrics, failures, attempted, detail


def parse_args(argv):
    from workloads import BUILDERS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "sumchoice" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'sumchoice'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv)
    if args.setup_probe:
        workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    load_before = machine_load()
    workload = workloads.setup(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, failures, attempted, detail = runner(workload, args)
    load_after = machine_load()

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "load_before": load_before,
        "load_after": load_after,
        "frozen_references": workload.frozen,
        "fail_rate": len(failures) / attempted,
        "failures": failures[:20],
        **detail,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
