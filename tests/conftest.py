"""Every test starts and ends with the kernel-moment memos empty.

`kernels._c2_part`/`_c3_part` and `bounds._brace_moment` live for the process,
so without this a value an earlier test cached would answer a later test that
patches or refuses a 2F1 or quadrature route, and whether that route is
checked would depend on the test order.
"""
import pytest

from hqfi import bounds, kernels

_MEMOS = (kernels._c2_part, kernels._c3_part, bounds._brace_moment)


@pytest.fixture(autouse=True)
def _cold_memos():
    for memo in _MEMOS:
        memo.cache_clear()
    yield
    for memo in _MEMOS:
        memo.cache_clear()
