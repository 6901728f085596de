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
