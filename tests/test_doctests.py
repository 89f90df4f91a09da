"""Run the docstring examples shipped in the public modules."""

from __future__ import annotations

import doctest

import pytest

import repro.core.bitset
import repro.core.dense
import repro.core.merge
import repro.core.problem
import repro.server.singleflight
import repro.service.engine


@pytest.mark.parametrize(
    "module",
    [
        repro.core.problem,
        repro.core.bitset,
        pytest.param(
            repro.core.dense,
            marks=pytest.mark.skipif(
                not repro.core.dense.HAVE_NUMPY,
                reason="the dense kernel's examples need numpy",
            ),
        ),
        repro.core.merge,
        repro.server.singleflight,
        repro.service.engine,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, "%d doctest failures in %s" % (
        results.failed, module.__name__
    )
    assert results.attempted > 0, "expected at least one doctest"
