"""Fixtures shared by several test files."""

import numpy as np
import pytest
import scipy.linalg as sla

from nhmetric import linalg
from nhmetric.linalg import blas_thread_counts


class LoggedArray(np.ndarray):
    """An array whose matrix products append ("matmul", thread counts) to ``seen``.

    Any other ufunc runs as on a plain array; results stay logged arrays,
    so every product downstream of one is logged too.
    """

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            LoggedArray.seen.append(("matmul", blas_thread_counts()))
        plain = [x.view(np.ndarray) if isinstance(x, LoggedArray) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, LoggedArray) else o for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(LoggedArray) if type(result) is np.ndarray else result


@pytest.fixture
def inside(monkeypatch):
    """(call, thread counts) of each BLAS or LAPACK call the package makes, in order.

    The LAPACK drivers are spied where the package looks them up: eigh,
    eig, eig_right's ``_rcond``, numpy's solve and det, and the Pfaffian's
    zhetrf.  eigh and eig hand back their eigenvectors as a
    :class:`LoggedArray`, so each matrix product with them, or with a
    result of one, is logged as "matmul".
    """
    if None in blas_thread_counts().values():
        pytest.skip("numpy's or scipy's OpenBLAS pool not found")
    seen = []
    monkeypatch.setattr(LoggedArray, "seen", seen)

    def spy(owner, name, logged_vectors=False):
        real = getattr(owner, name)

        def spying(*args, **kwargs):
            seen.append((name, blas_thread_counts()))
            result = real(*args, **kwargs)
            if logged_vectors:
                w, v = result
                return w, v.view(LoggedArray)
            return result

        monkeypatch.setattr(owner, name, spying)

    spy(sla, "eigh", logged_vectors=True)
    spy(sla, "eig", logged_vectors=True)
    for owner, name in (
        (linalg, "_rcond"),
        (np.linalg, "solve"),
        (np.linalg, "det"),
        (sla.lapack, "zhetrf"),
    ):
        spy(owner, name)
    return seen
