"""Check that two checkouts give the same outputs on a benchmark workload.

    python3 tools/same_outputs.py ROOT_A ROOT_B --workload contractions --seed 5
    python3 tools/same_outputs.py ROOT_A ROOT_B --workload all --seed 11

Builds the workload's job list (the timed jobs, the warm-ups and the
known-defect probes) with ROOT_A's perfbench/jobs.py, at the scale that
perfbench/run.py gives ``--seconds``, in one fixed work directory, so
that both checkouts see the same files and argv. Then, for each checkout
in turn, a fresh interpreter runs every job in-process through that
checkout's ``contractum.cli.dispatch``, in the order perfbench/run.py
runs them. A job's outcome is its exit code (or the exception it
raised), its stdout, its stderr, and the files it wrote. The stdout is
compared with the manifest's ``wall_clock_s`` masked and, when it parses
as JSON, by its value: as ``json.dumps`` writes it on one line, in its key
order and with its float reprs, so that a report in another layout (such
as ``indent=2``) matches the same report on one line.

Prints one line per workload and exits 0 when every job matches; else
names the first job that differs, and what differs, and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("tables", "contractions", "orbits", "integral")
WALL_CLOCK = re.compile(r'"wall_clock_s": [^,\n}]*')
PARTS = ("exit code", "stdout", "stderr", "written files")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(stdout: str) -> str:
    """stdout with the wall clock masked; a JSON stdout re-serialized."""
    text = WALL_CLOCK.sub('"wall_clock_s": 0', stdout)
    try:
        return json.dumps(json.loads(text))
    except ValueError:
        return text


def outcomes(root: Path, perfbench: Path, workdir: Path, workload: str, seed: int,
             seconds: float) -> list[dict]:
    """Every job of the workload, run by the checkout at root: its class,
    argv, and the digests of its outcome, in PARTS order."""
    sys.path[:0] = [str(root / "src"), str(perfbench)]
    import run  # first: it pins the BLAS/OpenMP threads
    import jobs
    from contractum.cli import dispatch

    gen = jobs.Generator(workdir, seed, workload)
    timed = run.interleave(jobs.WORKLOADS[workload](gen, seconds / run.RECIPE_SECONDS))
    warm = jobs.warmups(gen, workload)
    probes = jobs.known_defects(gen, workload)
    found = []
    for job in (*warm, *timed, *probes):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = dispatch(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a job that raises is compared by what it raised
            code = f"raised {type(exc).__name__}: {exc}"
        files = []
        for path in job.files:
            files.append(path.read_text() if path.exists() else None)
            path.unlink(missing_ok=True)
        found.append({"cls": job.cls, "argv": job.argv, "outcome": [
            repr(code), digest(report_text(stdout.getvalue())),
            digest(stderr.getvalue()), digest(json.dumps(files))]})
    return found


def run_checkout(root: Path, perfbench: Path, workdir: Path, workload: str, seed: int,
                 seconds: float) -> list[dict]:
    """outcomes() in a fresh interpreter, in a fresh work directory."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(root), str(perfbench), str(workdir),
             workload, str(seed), repr(seconds)],
            cwd=root, capture_output=True, text=True, timeout=1800)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the jobs of {root} did not run (exit {proc.returncode})")
    return json.loads(proc.stdout)


def first_difference(a: list[dict], b: list[dict]) -> str | None:
    if [job["argv"] for job in a] != [job["argv"] for job in b]:
        return "the two job lists differ"
    for k, (job_a, job_b) in enumerate(zip(a, b)):
        parts = [part for part, x, y in zip(PARTS, job_a["outcome"], job_b["outcome"])
                 if x != y]
        if parts:
            return (f"job {k} ({job_a['cls']}) differs in {', '.join(parts)}: "
                    f"{' '.join(job_a['argv'])}")
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        root, perfbench, workdir, workload, seed, seconds = argv[1:]
        print(json.dumps(outcomes(Path(root), Path(perfbench), Path(workdir), workload,
                                  int(seed), float(seconds))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root_a", type=Path, help="checkout whose perfbench builds the jobs")
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="sizes the job list as perfbench/run.py does")
    parser.add_argument("--workdir", type=Path,
                        default=Path(tempfile.gettempdir()) / "contractum-same-outputs",
                        help="fixed work directory for the generated inputs")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in (args.root_a, args.root_b)]
    for root in roots:
        if not (root / "src" / "contractum" / "cli.py").is_file():
            parser.error(f"no contractum sources under {root}")
    perfbench = roots[0] / "perfbench"
    code = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        a, b = (run_checkout(root, perfbench, args.workdir.resolve(), workload, args.seed,
                             args.seconds) for root in roots)
        difference = first_difference(a, b)
        if difference:
            print(f"{workload} seed {args.seed}: {difference}")
            code = 1
        else:
            print(f"{workload} seed {args.seed}: all {len(a)} jobs identical")
    return code


if __name__ == "__main__":
    sys.exit(main())
