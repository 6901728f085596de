import math

import numpy as np
import pytest

from contractum.errors import ExpressionError
from contractum.families import (
    F_REGISTRY,
    PHI_REGISTRY,
    constant_phi,
    resolve_F,
    resolve_phi,
)


def test_builtin_pairs_pass_all_checks_on_default_grid():
    # the magnitudes that appear in all built-in examples
    grid = np.geomspace(1e-6, 1e3, 64).tolist()
    for F in F_REGISTRY.values():
        values = [F(x) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
    for phi in PHI_REGISTRY.values():
        assert all(phi(x) > 0 for x in grid)
    # the limit trends along x_n = 2^-n: F heads down, and x^0.5 * F(x)
    # shrinks over the tail
    decay = [2.0 ** -n for n in range(1, 41)]
    for name in ("ln_plus_sqrt", "ln_sqrt"):
        values = [F_REGISTRY[name](x) for x in decay]
        assert all(b < a for a, b in zip(values, values[1:]))
        tail = [abs(x ** 0.5 * f) for x, f in zip(decay, values)][len(decay) // 2:]
        assert all(b < a for a, b in zip(tail, tail[1:]))


class TestRegistries:
    def test_named_lookup(self):
        assert resolve_F("ln")(math.e) == pytest.approx(1.0)
        assert resolve_phi("inv_2p")(2.0) == pytest.approx(0.25)

    def test_const_tau(self):
        phi = resolve_phi("const_tau(0.7)")
        assert phi(123.0) == 0.7

    def test_const_tau_rejects_nonpositive(self):
        with pytest.raises(ExpressionError):
            resolve_phi("const_tau(-1)")

    def test_expression_fallback(self):
        F = resolve_F("ln(t) + sqrt(t)")
        assert F(4.0) == pytest.approx(math.log(4) + 2.0)

    def test_constant_phi_positive_only(self):
        with pytest.raises(ValueError):
            constant_phi(0.0)
