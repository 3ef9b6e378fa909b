"""graphcert benchmark: closed-loop timing of the public API, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the parent of this file's directory; graphcert is imported
from its ``src/`` directory, never from an installed copy. The metric names, units
and workloads are read from ``BENCHMARK.json`` at the root.

One op of a workload starts only when the previous one has returned. Each
op gets an input it has not seen before; all inputs are drawn from
``--seed`` during set-up. Every op's output is checked, and an op that
raises or fails its check counts in ``failed`` and is left out of the
timings. The last line of standard output is the result object; the line
before it is a detail record (seed, input digest, machine facts, timings,
kernel call counts).

``--trace 0`` reports the end-to-end metrics. Set-up (imports, input
generation and the warm-up op) is repeated in fresh processes after the
timed loop, and ``setup_s`` is the median over those and this process's
own set-up. Each set-up certifies input 0, so its report must be
byte-identical across them.

``--trace 1`` alternates untraced and traced ops. Traced ops run with the
wrappers of ``spans.py`` installed and give the per-layer metrics, as the
median over traced ops; ``trace_overhead_frac`` compares the two halves.
Spans are written to ``.perfbench/`` when the run ends.

``--n`` shrinks a workload's graphs; it exists for the smoke test.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = (3, 5)  # at least 3 set-ups, up to 5 while they fit SETUP_BUDGET_S
SETUP_BUDGET_S = 20.0
MIN_OPS = 3
TIME_LIMIT_S = 150.0  # leave room under the 180 s a run may take


def _import_program():
    """Import graphcert from ./src or exit non-zero without a result."""
    if not (SRC / "graphcert" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'graphcert'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import graphcert

    if Path(graphcert.__file__).resolve().parent != (SRC / "graphcert").resolve():
        sys.exit(f"error: graphcert imported from {graphcert.__file__}, not {SRC}")
    import workloads

    return workloads


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: {path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def _check(wl, result) -> list:
    """Problems with one op's output; a check that cannot read the output
    reports that as a problem instead of ending the run."""
    try:
        return wl.check(result)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def set_up(wl, seed: int, workdir: Path):
    """Draw the inputs and run the warm-up op on input 0; the setup time
    covers the imports (from process start), the drawing and the op."""
    wl.setup(seed, workdir)
    result = wl.op(wl.prepare(0))
    setup_s = time.perf_counter() - _T0
    problems = _check(wl, result)
    try:
        sha = hashlib.sha256(wl.digest(result)).hexdigest()
    except Exception as exc:
        sha, problems = None, [*problems, f"digest failed: {type(exc).__name__}: {exc}"]
    return setup_s, sha, problems


def _setup_elsewhere(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.n:
        cmd += ["--n", str(args.n)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S / 2)
    except subprocess.TimeoutExpired:
        return {"problems": [f"set-up process took over {TIME_LIMIT_S / 2} s"]}
    if proc.returncode != 0:
        return {"problems": [f"set-up process exited {proc.returncode}: {proc.stderr[-500:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _kernel_counts(per_op: list) -> dict:
    counts = {}
    for name in ("eigh", "eigvalsh", "solve", "svd", "eigsh"):
        mod = "scipy.sparse.linalg" if name == "eigsh" else "numpy.linalg"
        seen = sorted({int(m.get(f"{mod}.{name}.calls", 0)) for m in per_op})
        counts[name] = seen[0] if len(seen) == 1 else seen
    return counts


def measure(wl, args, spec: dict, workdir: Path) -> tuple[dict, dict]:
    """Set up, run the closed loop and return (result, detail)."""
    from machine import facts
    from spans import Tracer

    setup_s, report_sha, problems = set_up(wl, args.seed, workdir)
    errors = [{"op": 0, "problems": problems}] if problems else []
    tracer = Tracer() if args.trace else None
    times = {False: [], True: []}  # traced? -> ms of ops that passed
    per_op, attempted, failed = [], 0, 0
    start = time.perf_counter()
    i = 1
    min_ops = MIN_OPS + 1 if args.trace else MIN_OPS

    def more() -> bool:
        now = time.perf_counter()
        if i > wl.cap:
            return False
        return now - start < args.seconds or (
            attempted < min_ops and now - _T0 < TIME_LIMIT_S / 2
        )

    while more():
        traced = bool(args.trace) and attempted % 2 == 1
        arg = wl.prepare(i)
        gc.collect()  # start every op from the same heap state
        if traced:
            tracer.install()
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result, raised = wl.op(arg), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, raised = None, exc
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_op()
            tracer.uninstall()
            per_op.append(tracer.op_metrics(i))
        attempted += 1
        problems = [f"{type(raised).__name__}: {raised}"] if raised else _check(wl, result)
        if problems:
            failed += 1
            errors.append({"op": i, "problems": problems[:3]})
        else:
            times[traced].append(dt * 1e3)
        i += 1
    loop_s = time.perf_counter() - start

    detail = {
        "workload": wl.name, "seed": args.seed, "n": wl.n, "trace": args.trace,
        "constants": wl.constants, "input_sha256": wl.input_digest(),
        "machine": facts(),
        "ops": {"attempted": attempted, "failed": failed,
                "failed_frac": failed / attempted if attempted else 1.0,
                "loop_s": loop_s, "op_ms": times[False], "traced_op_ms": times[True]},
        "report_sha256": report_sha,
    }
    metrics = {}
    if not args.trace:
        setups = [setup_s]
        while len(setups) < SETUP_RUNS[1]:
            if len(setups) >= SETUP_RUNS[0] and sum(setups) + setup_s > SETUP_BUDGET_S:
                break
            if time.perf_counter() - _T0 + 2 * setup_s > TIME_LIMIT_S:
                break
            other = _setup_elsewhere(args)
            if other.get("problems"):
                errors.append({"op": "set-up", "problems": other["problems"][:3]})
            if "setup_s" in other:
                setups.append(other["setup_s"])
                if other["sha256"] != report_sha:
                    errors.append({"op": "set-up", "problems": [
                        f"report of input 0 differs across set-ups: {other['sha256']}"]})
        detail["setup_runs_s"] = setups
        detail["deterministic_report"] = not any(e["op"] == "set-up" for e in errors)
        ms = times[False]
        values = {
            "op_ms_p50": statistics.median(ms) if ms else float("nan"),
            "ops_per_s": 1e3 * len(ms) / sum(ms) if ms else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["op_ms_samples"] = len(ms)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        names = sorted({key for d in per_op for key in d})
        medians = {key: statistics.median(d.get(key, 0.0) for d in per_op) for key in names}
        medians["trace_overhead_frac"] = (
            statistics.median(times[True]) / statistics.median(times[False]) - 1.0
            if times[True] and times[False] else float("nan")
        )
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": float(medians.get(m["name"], 0.0)), "unit": m["unit"]}
        counts = _kernel_counts(per_op)
        detail["kernel_calls_per_op"] = counts
        detail["kernel_calls_roadmap"] = wl.kernel_baseline
        detail["kernel_calls_differ_from_roadmap"] = {
            k: {"measured": counts[k], "roadmap": v}
            for k, v in wl.kernel_baseline.items() if counts[k] != v
        }
        detail["per_layer_all"] = medians
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    detail["errors"] = errors[:10]
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="graph size override (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _spec()
    workloads = _import_program()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    wl = workloads.WORKLOADS[args.workload](args.n)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            setup_s, sha, problems = set_up(wl, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s, "sha256": sha, "problems": problems}))
            return 0
        result, detail = measure(wl, args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
