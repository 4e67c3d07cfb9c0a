"""Closed-loop benchmark of the kbgeo package.

Run from the root of a source checkout:

    python3 kbbench/run.py --workload lattice_ladder --seed 1 --seconds 25 --trace 0

One process, one thread: each case starts after the previous one returns.
The seed fixes every input; the models are written as `.kbm` text and loaded
through `kbgeo.cli.load_model_text` from `src/` of the current directory.
Set-up (import, model generation and loading, prebuilt state) is repeated
`SETUP_REPS` times and reported as its median.  The fixed case list is then
run in `--seconds` // `workloads.PASS_SECONDS` passes, at least one; every
case's outputs are checked after every pass.  Case times are scaled to a
reference speed (see `REFERENCE_S`); a case's time is its least scaled time
over the passes, and `wall_s` is the sum of those.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` the run adds one traced pass and
reports the per-layer metrics instead, and writes that pass's spans to
`.kbbench/spans-<workload>.tsv`.  The exit code is 1 when any output check
failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import probes
import workloads
from spans import Recorder

SETUP_REPS = 3
MODULES = ("core", "formulas", "semantics", "lattice", "categories", "equivalence", "cli")


def import_kbgeo(src: str) -> SimpleNamespace:
    """A fresh import of the package from `src`, every module re-executed."""
    for name in [n for n in sys.modules if n == "kbgeo" or n.startswith("kbgeo.")]:
        del sys.modules[name]
    package = importlib.import_module("kbgeo")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "kbgeo"):
        raise ImportError(f"kbgeo was imported from {package.__file__}, not {src}")
    return SimpleNamespace(package=package,
                           **{m: importlib.import_module(f"kbgeo.{m}") for m in MODULES})


def set_up(workload: str, seed: int, src: str, rec: Recorder | None = None):
    """One set-up: returns the package, the cases and a digest of the inputs.
    With a recorder, the set-up's own calls into the package are traced."""
    kb = import_kbgeo(src)
    patches = probes.instrument(kb, rec) if rec is not None else None
    try:
        if rec is not None:
            rec.active = True
        load = workloads.Loader(kb)
        cases = workloads.SETUPS[workload](kb, random.Random(f"{workload}:{seed}"), load)
    finally:
        if rec is not None:
            rec.active = False
            patches.undo()
    digest = hashlib.sha256("".join(load.texts).encode()).hexdigest()
    return kb, cases, digest


# The machine is shared, and its speed drifts by tens of percent over seconds.
# So every case is timed right after `reference_task`, and its time is scaled
# by REFERENCE_S over the reference's time: seconds at the speed where the
# reference takes REFERENCE_S, about its time on an idle 2-vCPU x86-64 host
# with Python 3.11.  A case's reported time is the least of these over the
# passes.
REFERENCE_S = 0.0016


def reference_task() -> int:
    """A fixed task of the kinds of work the package does (small tuples, dict
    lookups, big-int bit operations), timed before every case to track the
    machine's speed."""
    index: dict = {}
    acc = 0
    for i in range(3000):
        key = (i % 7, i * 31 % 1009)
        index[key] = index.get(key, 0) + i
        acc |= 1 << key[1]
        acc ^= acc >> 3
    return len(index) + acc.bit_count()


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def corrected(times, refs) -> list[float]:
    """Times scaled to the reference speed, each by the reference timed just before it."""
    return [t * REFERENCE_S / r for t, r in zip(times, refs)]


def run_pass(cases, rec: Recorder | None = None):
    """Time each case's calls, then check its outputs untimed."""
    times, refs, failures, decided = [], [], [], 0
    for case in cases:
        gc.collect()  # each case starts from the same heap and collector state
        refs.append(time_reference())
        if rec is not None:
            rec.active = True
        start = time.perf_counter()
        try:
            out = case.run()
        except Exception as exc:  # a raising case is a failed case; the run goes on
            times.append(time.perf_counter() - start)
            failures.append(f"{case.label}: raised {exc!r}")
            continue
        finally:
            if rec is not None:
                rec.active = False
        times.append(time.perf_counter() - start)
        ok, is_decided, detail = case.check(out)
        decided += is_decided
        if not ok:
            failures.append(f"{case.label}: {detail}")
    return SimpleNamespace(times=times, refs=refs, wall=sum(times), failures=failures,
                           decided=decided)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy's default computes it."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def measure(cases, passes: int, traced: Recorder | None, kb):
    """`passes` untraced passes; with a recorder, one untraced pass and then
    one traced pass."""
    if traced is None:
        return [run_pass(cases) for _ in range(passes)], None
    plain = [run_pass(cases)]
    patches = probes.instrument(kb, traced)
    try:
        return plain, run_pass(cases, traced)
    finally:
        patches.undo()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "kbgeo", "__init__.py")):
        print(f"kbbench: no kbgeo package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    setups, setup_refs, digests = [], [], set()
    for _ in range(SETUP_REPS):
        gc.collect()
        setup_refs.append(time_reference())
        start = time.perf_counter()
        kb, cases, digest = set_up(args.workload, args.seed, src)
        setups.append(time.perf_counter() - start)
        digests.add(digest)

    rec = Recorder() if args.trace else None
    if rec is not None:
        setup_rec = Recorder()
        digests.add(set_up(args.workload, args.seed, src, setup_rec)[2])
    passes = max(1, int(args.seconds // workloads.PASS_SECONDS[args.workload]))
    plain, traced = measure(cases, passes, rec, kb)
    runs = plain + ([traced] if traced else [])
    attempted = sum(len(r.times) for r in runs)
    failures = [f for r in runs for f in r.failures]
    if len(digests) != 1:
        failures.append("the same seed generated different model text across set-ups")
    decided = sum(r.decided for r in runs)
    per_case = [min(ts) for ts in zip(*(corrected(r.times, r.refs) for r in plain))]
    walls = [r.wall for r in plain]

    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups, at reference speed",
        "wall_s": f"sum over {len(cases)} cases of each one's minimum over {len(plain)} passes",
        "case_s.p50": f"n={len(per_case)} cases, each the minimum of {len(plain)} passes",
        "case_s.p90": f"n={len(per_case)} cases, each the minimum of {len(plain)} passes",
        "error_rate": f"{len(failures)} of {attempted} case runs failed",
    }
    metrics = {
        "setup_s": (statistics.median(corrected(setups, setup_refs)), "s"),
        "wall_s": (sum(per_case), "s"),
        "case_s.p50": (quantile(per_case, 0.5), "s"),
        "case_s.p90": (quantile(per_case, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_frac": (1 - len(failures) / attempted, "frac"),
        "decided_frac": (decided / attempted, "frac"),
    }
    shown = dict(metrics, error_rate=(len(failures) / attempted, "frac"))

    if rec is not None:
        os.makedirs(".kbbench", exist_ok=True)
        rec.write(os.path.join(".kbbench", f"spans-{args.workload}.tsv"))
        layers = probes.layer_metrics(rec)
        self_sum = sum(s for _, s in rec.self_times().values())
        loads = setup_rec.self_times().get("cli.load_model_text", (0, 0.0))
        layers.update({"cli.load_model_text.calls": (loads[0], "count"),
                       "cli.load_model_text.self_s": (loads[1], "s")})
        unwrapped = traced.wall - self_sum
        if abs(self_sum - rec.top_level_s()) > 1e-6 or unwrapped < -1e-6:
            failures.append(f"span self times {self_sum!r} do not fit the traced wall "
                            f"{traced.wall!r}")
        layers.update({
            "trace.wall_s": (traced.wall, "s"),
            "trace.self_s": (self_sum, "s"),
            "trace.unwrapped_s": (unwrapped, "s"),
            "trace.spans": (len(rec.start), "count"),
            "trace.overhead_frac": (traced.wall / statistics.median(walls) - 1, "frac"),
        })
        notes["trace.overhead_frac"] = "traced pass wall over the median untraced pass wall, minus 1"
        shown.update(layers)
        metrics = layers

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases, "
          f"{len(plain)} untraced passes{', 1 traced pass' if traced else ''}, "
          f"inputs sha256 {digests.pop()[:16]}")
    refs = [f for r in plain for f in r.refs]
    print("pass walls before scaling (s): " + " ".join(f"{w:.4f}" for w in walls)
          + f"; reference task median {statistics.median(refs) * 1e3:.4f} ms,"
          f" least {min(refs) * 1e3:.4f} ms, against {REFERENCE_S * 1e3:.4f} ms")
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:50s} {value:>14.6g} {unit}{note}")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
