"""contractum benchmark: seeded CLI workloads, checked answers, per-layer trace.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload, as a table

Run from the repository root. One process, one thread (BLAS/OpenMP
pinned to one), closed loop: each job is one in-process call of
``contractum.cli.dispatch(argv)``, started after the previous one has
returned and been checked. ``--seconds`` sizes the job list: the recipe
of each workload is scaled so that the list takes about that long at the
commit that introduced the benchmark; the list, not the clock, ends the
run, so two commits do the same work.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics from a separately traced pass (and
writes the spans under perfbench/out/). The last line of stdout is the JSON result; the line
before it is a JSON report with the details. See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("tables", "contractions", "orbits", "integral")
# seconds of job time a recipe takes at scale 1, at the commit that
# introduced the benchmark, on a 2-core x86-64 machine; job counts are
# scaled by --seconds / this
RECIPE_SECONDS = 15.0
SETUPS = 3            # fresh processes timed for setup_s



def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    def __init__(self, dispatch):
        self.dispatch = dispatch
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fixed_point_err: float | None = None

    def execute(self, job, call=None) -> float:
        """Run one job, check its answer, return its wall time in seconds."""
        stdout, stderr = io.StringIO(), io.StringIO()
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = call(job.argv) if call else self.dispatch(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a job that raises counts as failed
            code, raised = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        self.attempted += 1
        if raised:
            reason = f"raised {raised}"
        else:
            try:
                text = stdout.getvalue()
                reason, err = job.check(code, json.loads(text) if text.strip() else None)
            except Exception as exc:  # malformed output fails the job, not the run
                reason, err = f"unreadable answer: {type(exc).__name__}: {exc}", None
            if err is not None:
                self.fixed_point_err = max(err, self.fixed_point_err or 0.0)
        for path in job.files:
            path.unlink(missing_ok=True)
        if reason:
            self.failed += 1
            self.failures.append(f"{job.cls}: {reason} :: {' '.join(job.argv)}")
        return took


def interleave(jobs: list) -> list:
    """Spread each class evenly over the run, in the same order for every
    seed, so that memory high-water marks do not depend on the seed."""
    counts: dict[str, int] = {}
    keyed = []
    for job in jobs:
        k = counts.get(job.cls, 0)
        counts[job.cls] = k + 1
        keyed.append((k, job))
    return [job for _, _, job in sorted(
        ((k + 0.5) / counts[job.cls], n, job) for n, (k, job) in enumerate(keyed))]


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten jobs beyond it,
    and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def time_setup(warmup_file: Path) -> float:
    """Wall time from launching a fresh interpreter until it has imported
    the CLI and run one warm-up job per kind."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(warmup_file)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            took = time.perf_counter() - start
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.read()[-2000:]}")
    return took


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_commit": commit,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import jobs as joblib

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        gen = joblib.Generator(workdir, args.seed, args.workload)
        scale = args.seconds / RECIPE_SECONDS
        job_list = interleave(joblib.WORKLOADS[args.workload](gen, scale))
        warm = joblib.warmups(gen, args.workload)
        probes = joblib.known_defects(gen, args.workload)
        generate_s = time.perf_counter() - started

        setup_s = None
        if not args.trace:
            warm_file = workdir / "warmup.json"
            warm_file.write_text(json.dumps([j.argv for j in warm]))
            setup_s = statistics.median(time_setup(warm_file) for _ in range(SETUPS))

        from contractum.cli import dispatch
        runner = Runner(dispatch)
        for job in warm:
            runner.execute(job)
        times = [runner.execute(job) for job in job_list]
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "jobs": len(times), "job_seconds": sum(times), "generate_s": generate_s}
        if args.trace:
            metrics = traced(args, runner, job_list, times, report)
        else:
            value, pct = tail(times)
            metrics = {"job_p50_ms": statistics.median(times) * 1e3,
                       "job_tail_ms": value * 1e3,
                       "jobs_per_s": len(times) / sum(times),
                       "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            report.update(tail_percentile=pct, tail_jobs_beyond=min(10, len(times) - 1))
        report["error_rate"] = runner.failed / runner.attempted
        report["fixed_point_err"] = runner.fixed_point_err
        # ROADMAP item 4: inputs that should exit 2 but raise today. They
        # run after the measured jobs and are reported apart from them.
        defects = Runner(dispatch)
        for job in probes:
            defects.execute(job)
        report["known_defects"] = {"attempted": defects.attempted, "failed": defects.failed,
                                   "failures": defects.failures}
        report["classes"] = class_summary(job_list, times)
        report["failures"] = runner.failures[:20]
        report["environment"] = environment()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        result = {"correct": runner.failed == 0, "attempted": runner.attempted,
                  "failed": runner.failed,
                  "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                              for m in declared}}
        print(json.dumps(report))
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def class_summary(job_list, times) -> dict:
    by_cls: dict[str, list[float]] = {}
    for job, t in zip(job_list, times):
        by_cls.setdefault(job.cls, []).append(t)
    return {c: {"jobs": len(v), "p50_ms": statistics.median(v) * 1e3}
            for c, v in sorted(by_cls.items())}


def traced(args, runner: Runner, job_list, untraced_times, report) -> dict:
    """The traced pass, then the tracemalloc pass; ``untraced_times`` is
    the plain pass over the same jobs, for the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    kinds = {}
    times = []
    try:
        for k, job in enumerate(job_list):
            tracer.job = k
            kinds[k] = job.kind
            times.append(runner.execute(
                job, lambda argv: tracer.call("cli.job", runner.dispatch, (argv,), {})))
    finally:
        tracer.uninstall()
    report["job_spans_checked"] = tracing.check_job_sums(tracer)
    metrics = tracing.layer_metrics(tracer, kinds)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(span_file)
    report["span_file"] = str(span_file.relative_to(ROOT))
    report["traced_job_p50_ms"] = statistics.median(times) * 1e3
    report["untraced_job_p50_ms"] = statistics.median(untraced_times) * 1e3
    metrics["trace.p50_ratio"] = statistics.median(times) / statistics.median(untraced_times)

    # tracemalloc slows allocation-heavy layers ~10x, so the peaks come
    # from their own pass over one job of each class that reaches them
    peaks = tracing.Tracer(peaks=True)
    peaks.install()
    seen = set()
    tracemalloc.start()
    try:
        for job in job_list:
            if job.kind in ("classify", "iterate") and job.cls not in seen:
                seen.add(job.cls)
                runner.execute(job)
    finally:
        tracemalloc.stop()
        peaks.uninstall()
    metrics["spaces.classify_peak_mb"] = peaks.peak_mb.get("spaces.classify", 0.0)
    metrics["picard.peak_mb"] = peaks.peak_mb.get("picard.iterate", 0.0)
    return metrics


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name and
    unit, then one JSON line with all results."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[workload] = (json.loads(lines[-2]), json.loads(lines[-1]))
    for workload, (report, result) in results.items():
        print(f"{workload}: {result['attempted']} jobs checked, {result['failed']} failed, "
              f"{report['known_defects']['failed']} of {report['known_defects']['attempted']} "
              f"item-4 probes failing")
        rows = [(k, v["unit"], v["value"]) for k, v in result["metrics"].items()]
        rows += [("error_rate", "ratio", report["error_rate"]),
                 ("fixed_point_err", "abs", report["fixed_point_err"])]
        if "tail_percentile" in report:
            rows.append(("job_tail_percentile", "%", report["tail_percentile"]))
        for name, unit, value in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:32s} {shown:>14s} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{w}.{k}": v for w, (_, r) in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contractum" / "cli.py").is_file():
        print(f"error: no contractum sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
