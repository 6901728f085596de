"""The traced benchmark (perfbench/tracing.py) wraps program attributes by
name; a renamed attribute must fail here, not only in the slower
perfbench/smoke.py."""

import importlib.util
from pathlib import Path

import contractum.cli as cli
import contractum.integral as integral
import contractum.picard as picard

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    names = {(owner, attr) for owner, attr, _ in patched}
    for needed in [(cli, "minimal_coefficient"), (cli, "validate_space"),
                   (cli, "ContractionSpec"), (picard.IterationTrace, "write_csv"),
                   (cli, "iterate"), (picard, "iterate"), (integral, "iterate")]:
        assert needed in names, needed


def test_traced_orbit_takes_the_checked_path(capsys):
    """Under the tracer, the map of an `iterate --domain` job is a leaf
    wrapper with no bare lambda, so every step calls the checked evaluate
    and gap2 calls the metric once per entry: the per-layer counts are
    those of an orbit without the fast path."""
    from contractum.cli import dispatch

    tracing = _load_tracing()
    # x -> x/2 + 1/4 from 0.9: the oracle counts the steps to tol = 1e-9
    points = [0.9]
    while abs(points[-1] - (points[-1] / 2 + 0.25)) > 1e-9:
        points.append(points[-1] / 2 + 0.25)
    points.append(points[-1] / 2 + 0.25)
    steps = len(points) - 1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not hasattr(cli.compile_expression("x", ("x",)), "scalar")
        tracer.job = 0
        assert tracer.call("cli.job", dispatch, (["--json", "iterate", "--domain",
                                                  "interval:0,1", "--map", "x/2 + 0.25",
                                                  "--x0", "0.9"],), {}) == 0
    finally:
        tracer.uninstall()
    assert '"converged"' in capsys.readouterr().out
    counts = {}
    for (name, *_), (count, *_) in tracer.leaves.items():
        counts[name] = counts.get(name, 0) + count
    # every step calls T once, and T calls the checked evaluate once; the
    # metric gives one residual per step and one gap2 entry per point but two
    assert counts == {"picard.T": steps, "expressions.eval": steps,
                      "picard.metric": steps + len(points) - 2}
    metrics = tracing.layer_metrics(tracer, {0: "iterate"})
    assert metrics["expressions.evals"] == steps
    assert metrics["picard.steps"] == steps - 1      # converged: the last step confirms
