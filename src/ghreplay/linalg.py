"""Checked dense float64 primitives, the reference for the model's kernel.

Matrices are 2-D C-contiguous numpy float64 arrays; numpy supplies the
kernels. These wrappers pin down the contracts the model relies on:
shape errors that name both operands, finite results and the kernel's
sigmoid 1 / (1 + exp(-x)), whose exp overflows silently below -709.78.

No module of the package imports this one: ``model.py`` runs the same
arithmetic on numpy directly, and its bit-identity tests compare it with
reference passes that the tests write on these functions.
"""

from __future__ import annotations

import numpy as np

SIGMOID = "sigmoid"
TANH = "tanh"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape and finiteness checking."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"matmul: operands must be 2-D, got ndim {a.ndim} and {b.ndim}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes "
            f"({a.shape[0]}x{a.shape[1]}) @ ({b.shape[0]}x{b.shape[1]})"
        )
    with np.errstate(over="ignore"):
        out = a @ b
    if not np.isfinite(out).all():
        raise ValueError("matmul: result contains non-finite values")
    return out


def activation(kind: str, x: np.ndarray) -> np.ndarray:
    """Elementwise nonlinearity; input must be finite."""
    if kind not in (SIGMOID, TANH):
        raise ValueError(f"unknown activation kind {kind!r}")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"activation({kind}): input contains non-finite values")
    if kind == SIGMOID:
        # below -709.78 exp(-x) is inf and the result 0, the limit
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-x))
    return np.tanh(x)

