"""Safe arithmetic expression compiler for user-supplied functions.

Grammar: +, -, *, /, ^ (power), unary minus, parentheses, the functions
ln/log, exp, sqrt, abs, sin, cos, tan, the constants e and pi, numeric
literals, and a caller-declared set of variable names. Anything else is
rejected with the offending token named.

A compiled expression takes floats and returns a float, or takes numpy
arrays and returns an array: the same expression is then evaluated with
numpy ufuncs over the broadcast arguments.
"""

from __future__ import annotations

import ast
import math
import types
from typing import Callable

import numpy as np
from numpy import ndarray

from .errors import ExpressionError

# name -> (scalar function, array function)
_FUNCTIONS = {
    "ln": (math.log, np.log),
    "log": (math.log, np.log),
    "exp": (math.exp, np.exp),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "tan": (math.tan, np.tan),
}

_CONSTANTS = {"e": math.e, "pi": math.pi}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate(node: ast.AST, variables: tuple[str, ...]) -> None:
    """Reject anything outside the grammar. Numeric literals are made
    floats in place, so a power such as 2^2^40 overflows at once instead
    of growing a Python big int."""
    if isinstance(node, ast.Expression):
        _validate(node.body, variables)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(
                f"operator {type(node.op).__name__!r} is not allowed",
                token=type(node.op).__name__,
            )
        _validate(node.left, variables)
        _validate(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(
                f"operator {type(node.op).__name__!r} is not allowed",
                token=type(node.op).__name__,
            )
        _validate(node.operand, variables)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ExpressionError("only plain calls to named functions are allowed")
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}", token=name)
        for arg in node.args:
            _validate(arg, variables)
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r}", token=node.id)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"literal {node.value!r} is not numeric",
                                  token=repr(node.value))
        try:
            node.value = float(node.value)
        except OverflowError:
            raise ExpressionError(f"literal {node.value} is too large",
                                  token=str(node.value)) from None
    else:
        raise ExpressionError(
            f"syntax element {type(node).__name__!r} is not allowed",
            token=type(node).__name__,
        )


def _namespace(which: int) -> dict:
    return {**{k: v[which] for k, v in _FUNCTIONS.items()}, **_CONSTANTS,
            "__builtins__": {}}


_SCALAR_NAMES = _namespace(0)
_ARRAY_NAMES = _namespace(1)


def compile_expression(text: str, variables: tuple[str, ...]) -> Callable[..., float]:
    """Compile ``text`` into a positional-argument callable over ``variables``.

    Called with floats, it returns a float. Called with a numpy array as
    its first argument, it evaluates the expression with numpy ufuncs and
    returns a read-only array of the arguments' broadcast shape (a
    constant or an x-only expression is broadcast too). In both modes a
    division by zero, a domain error, an overflow or a non-real value
    raises ExpressionError; in array mode the message names the first
    failing element in row-major order, exactly as the scalar mode would.

    Raises ExpressionError naming the offending token on any parse or
    validation failure.
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        bad = exc.text.strip() if exc.text else text
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}", token=bad) from None
    _validate(tree, variables)
    params = ast.arguments(posonlyargs=[], args=[ast.arg(arg=v) for v in variables],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    function = ast.Expression(body=ast.Lambda(args=params, body=tree.body))
    code = compile(ast.fix_missing_locations(function), "<expression>", "eval")
    scalar = eval(code, _SCALAR_NAMES)
    vector = types.FunctionType(scalar.__code__, _ARRAY_NAMES)

    def on_arrays(args) -> np.ndarray:
        arrays = [np.asarray(a, dtype=float) for a in args]
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                out = vector(*arrays)
        except ArithmeticError:
            # the scalar mode decides, element by element in row-major
            # order, so the first failure and its message are its own
            columns = [a.ravel().tolist() for a in np.broadcast_arrays(*arrays)]
            out = np.array([evaluate(*point) for point in zip(*columns)]).reshape(shape)
        return np.broadcast_to(out, shape)

    def evaluate(*args):
        if args and type(args[0]) is ndarray:
            return on_arrays(args)
        try:
            for a in args:
                if type(a) is not float:
                    # numpy scalars follow numpy rules (inf or nan with only
                    # a warning); as Python floats they raise like any other
                    args = tuple(map(float, args))
                    break
            value = scalar(*args)
            return value if type(value) is float else float(value)
        except (ArithmeticError, ValueError, TypeError) as exc:
            # TypeError: a negative base to a fractional power is complex
            where = ", ".join(f"{n}={v!r}" for n, v in zip(variables, args))
            raise ExpressionError(f"cannot evaluate {text!r} at {where}: {exc}") from None

    evaluate.__name__ = f"expr({text})"
    evaluate.expression = text  # type: ignore[attr-defined]
    evaluate.scalar = scalar  # type: ignore[attr-defined]  # unchecked, floats only
    return evaluate


def array_values(fn: Callable, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` over the broadcast arrays, as floats. A callable that cannot
    take arrays (a ``math`` call, an ``if`` on its argument) is applied
    element by element, in row-major order."""
    try:
        values = fn(*arrays)
    except (TypeError, ValueError):
        values = np.vectorize(fn, otypes=[float])(*arrays)
    return np.broadcast_to(np.asarray(values, dtype=float),
                           np.broadcast_shapes(*(a.shape for a in arrays)))
