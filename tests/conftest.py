"""Every test starts and ends with the kernel-moment memos empty.

`kernels._g` and `kernels._d`, which memoize each 2F1-level value of the
moments, live for the process, so without this a value an earlier test
cached would answer a later test that patches or refuses a 2F1 or
quadrature route, and whether that route is checked would depend on the
test order.  The `moment_calls` fixture counts the brace moments the
bound evaluator computes.
"""
import collections

import pytest

from hqfi import bounds, kernels

_MEMOS = (kernels._g, kernels._d)


@pytest.fixture(autouse=True)
def _cold_memos():
    for memo in _MEMOS:
        memo.cache_clear()
    yield
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture
def moment_calls(monkeypatch) -> collections.Counter:
    """Calls of c2 and c3 through the names `bounds` binds, counted per (side, alpha, lam, kq, r); side 0 is c2."""
    calls = collections.Counter()
    for side, name in enumerate(("c2", "c3")):
        inner = getattr(bounds, name)

        def counted(alpha, lam, kq, r, side=side, inner=inner):
            calls[side, alpha, lam, kq, r] += 1
            return inner(alpha, lam, kq, r)

        monkeypatch.setattr(bounds, name, counted)
    return calls
