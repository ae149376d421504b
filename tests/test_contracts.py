"""Every row of the contract table, small, and the relations it judges by.

The rows and why each relation holds are in ``contracts.py``; the same rows
run full between two checkouts under ``scripts/diff_label_model_fits.py``.
"""

import numpy as np
import pytest
from contracts import BITWISE, CONTRACTS, Contract, check_across, check_within, tolerance


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda contract: contract.name)
def test_contract(contract):
    tally = check_within(contract, contract.run(full=False))
    assert tally.compared and not tally.failures, tally.failures[:5]


def test_relations_compare_bits_and_nan_positions():
    """The old float-cast comparator called the first two pairs identical
    and two identical dumps holding a NaN different."""
    assert not BITWISE.holds(np.array([-0.0]), np.array([0.0]))
    assert not BITWISE.holds(np.array([2**53]), np.array([2**53 + 1]))
    assert not BITWISE.holds(np.array([1, 2]), np.array([1.0, 2.0]))
    with_nan = {"side": {"record": np.array([1.0, np.nan]), "other": np.array([2**53])}}
    contract = Contract("nan", lambda full: None, {})
    twin = {"side": {name: array.copy() for name, array in with_nan["side"].items()}}
    same = check_across(contract, with_nan, twin)
    assert (same.held, same.compared, same.worst, same.failures) == (2, 2, 0.0, [])
    close = tolerance(atol=1e-12)
    assert close.holds(np.array([np.nan, 1.0]), np.array([np.nan, 1.0 + 1e-13]))
    assert not close.holds(np.array([np.nan, 1.0]), np.array([1.0, np.nan]))
    assert not close.holds(np.array([0.0]), np.array([1e-9]))
    records = {"a": {"x": np.array([0.0])}, "b": {"x": np.array([-0.0])}}
    assert check_within(Contract("signed zero", lambda full: None, {}), records).failures
