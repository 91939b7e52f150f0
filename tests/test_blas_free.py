"""The package never calls BLAS, so no output depends on the BLAS thread count.

BLAS routines (dot, matmul, inner, vdot, tensordot and the @ operator) may
split a sum across threads and change its rounding with the thread count.
Tier-1 runs under OPENBLAS_NUM_THREADS 1 and 2 and expects the same bits;
this check keeps such calls out of src/dotesd at the source level.
"""

import ast
from pathlib import Path

import pytest

import dotesd

BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}
SOURCES = sorted(Path(dotesd.__file__).parent.glob("*.py"))


def blas_uses(source: str) -> list[int]:
    """Line numbers of BLAS calls: np.dot(...), a.dot(...), ..., and a @ b."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in BLAS_CALLS:
                lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "snippet",
    ["np.dot(x, y)", "numpy.matmul(a, b)", "x.dot(y)", "np.inner(x, y)", "np.vdot(x, y)",
     "np.tensordot(a, b, 1)", "a @ b", "a @= b"],
)
def test_checker_flags(snippet):
    assert blas_uses(snippet) == [1]


def test_checker_passes_pairwise_sums():
    assert blas_uses("np.sum(x * y)\nnp.einsum('ik,jk->ij', a, b)\nnp.outer(t, v)") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_in_package(path):
    assert blas_uses(path.read_text()) == [], f"BLAS call in {path.name}"
