#!/usr/bin/env python
"""Cross-checkout differential over the contract table (``tests/contracts.py``).

Dump every row at full size under one checkout's ``src/``, dump again under
another, then diff::

    PYTHONPATH=/path/to/parent/src python scripts/diff_label_model_fits.py dump a.pkl
    PYTHONPATH=src                 python scripts/diff_label_model_fits.py dump b.pkl
    python scripts/diff_label_model_fits.py diff a.pkl b.pkl

The table always comes from this checkout, so a dump under an older ``src/``
runs the current rows.  ``diff`` prints one line per row: how many records
satisfy the row's relation inside each dump (and how many only one side
returns), how many satisfy its relation between the dumps with the largest
absolute difference (records only one dump holds are counted, not
compared), and PASS when every relation holds.  The exit status is 1 when
any row FAILs.
"""

from __future__ import annotations

import pathlib
import pickle
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
# Last, so that the ``src/`` named on PYTHONPATH is the one a dump runs.
sys.path.append(str(ROOT / "src"))


def dump(path: str) -> None:
    from contracts import CONTRACTS

    records = {contract.name: contract.run(full=True) for contract in CONTRACTS}
    with open(path, "wb") as handle:
        pickle.dump(records, handle)
    count = sum(len(arrays) for sides in records.values() for arrays in sides.values())
    print(f"{count} records in {len(records)} rows -> {path}")


def diff(path_a: str, path_b: str) -> int:
    from contracts import CONTRACTS, check_across, check_within

    with open(path_a, "rb") as handle_a, open(path_b, "rb") as handle_b:
        a, b = pickle.load(handle_a), pickle.load(handle_b)
    print(
        f"{'row':44s} {'within: parent | change':46s} {'across':21s} "
        f"{'max |diff|':>10s} {'one-sided':>9s}"
    )
    failed = 0
    for contract in CONTRACTS:
        parent, change = a.get(contract.name, {}), b.get(contract.name, {})
        within = [check_within(contract, records) for records in (parent, change)]
        across = check_across(contract, parent, change)
        failures = within[0].failures + within[1].failures + across.failures
        failed += bool(failures)
        inside = " | ".join(f"{tally.held}/{tally.compared}" for tally in within)
        inside = f"{contract.within} {inside} ({within[1].uncompared} side-only)"
        between = f"{contract.across} {across.held}/{across.compared}"
        print(
            f"{contract.name:44s} {inside:46s} {between:21s} {across.worst:10.3e} "
            f"{across.uncompared:9d}  {'FAIL' if failures else 'PASS'}"
        )
        for failure in failures[:3]:
            print(f"    {failure}")
    print(f"{len(CONTRACTS) - failed}/{len(CONTRACTS)} rows PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        raise SystemExit(diff(sys.argv[2], sys.argv[3]))
    else:
        raise SystemExit(__doc__)
