#!/usr/bin/env python
"""Differential check of label-model fits between two checkouts.

The EM kernel's contract is that CSR-input fits (weights, class prior,
history, ``predict_proba``) stay bit-identical across refactors.  Dump the
fits of one checkout, dump the other's, and diff::

    PYTHONPATH=/path/to/parent/src python scripts/diff_label_model_fits.py dump a.pkl
    PYTHONPATH=src                 python scripts/diff_label_model_fits.py dump b.pkl
    python scripts/diff_label_model_fits.py diff a.pkl b.pkl

The grid is k ∈ {2, 3, 4} × {no, planted correlations} × {estimated,
supplied class balance} × {CSR, dense input}, plus CD fits, online
folds/drains/edits and the all-abstain-row / empty-column edge matrix.  The
diff prints, per group, how many recorded arrays are bit-identical and the
largest absolute difference.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np

EDGE = np.array(
    [[1, -1, 0, 1], [0, 1, 0, -1], [0, 0, 0, 0], [-1, 0, 0, 0], [1, 1, 0, 1]]
)


def dump(path: str) -> None:
    from repro.datasets.synthetic import (
        generate_label_matrix,
        generate_multiclass_label_matrix,
    )
    from repro.labeling import LabelMatrix, SparseLabelMatrix
    from repro.labelmodel import GenerativeModel, OnlineGenerativeModel

    out: dict[str, object] = {}

    def record(tag, model, inputs):
        history = model.history
        out[f"{tag}/weights"] = model.weights.copy()
        out[f"{tag}/prior_weight"] = np.float64(model.class_prior_weight_)
        out[f"{tag}/priors"] = model.class_priors_
        out[f"{tag}/history"] = np.array(
            [history.epochs, *history.weight_deltas, *history.mean_accuracy_weights]
        )
        for name, matrix in inputs.items():
            out[f"{tag}/predict {name}"] = model.predict_proba(matrix)

    rng = np.random.default_rng(0)
    pairs = [(0, 1), (2, 3), (0, 4), (1, 4)]
    for k in (2, 3, 4):
        if k == 2:
            data = generate_label_matrix(num_points=700, num_lfs=9, propensity=0.35, seed=k)
        else:
            data = generate_multiclass_label_matrix(
                num_points=700, num_lfs=9, cardinality=k, propensity=0.35, seed=k
            )
        base = data.label_matrix.values
        base[5] = 0  # an all-abstain row
        planted = base.copy()
        for a, b in pairs[:3]:
            copied = rng.random(700) < 0.7
            planted[copied, b] = planted[copied, a]
        test = base[rng.permutation(700)[:150]]
        tests = {"dense": test, "csr": SparseLabelMatrix.from_dense(test)}
        supplied = 0.3 if k == 2 else list(np.arange(1, k + 1) / np.arange(1, k + 1).sum())
        for corr_name, dense, corr in (("plain", base, ()), ("correlated", planted, pairs)):
            for balance_name, balance in (("estimated", None), ("supplied", supplied)):
                for storage in ("csr", "dense"):
                    matrix = LabelMatrix(dense, cardinality=k)
                    if storage == "csr":
                        matrix = matrix.to_sparse()
                    model = GenerativeModel(epochs=14, class_balance=balance, seed=0)
                    model.fit(matrix, correlations=corr)
                    record(
                        f"em {storage}-input fit/k{k} {corr_name} {balance_name}",
                        model,
                        {f"train {storage}": matrix, **tests},
                    )
        for storage in ("csr", "dense"):
            matrix = LabelMatrix(base[:200], cardinality=k)
            if storage == "csr":
                matrix = matrix.to_sparse()
            for corr in ((), [(0, 1)]):
                model = GenerativeModel(method="cd", epochs=3, seed=0)
                model.fit(matrix, correlations=corr)
                record(f"cd {storage}-input fit/k{k} {len(corr)} pairs", model, tests)
        for corr in ((), pairs[:2]):
            tag = f"k{k} {len(corr)} pairs"
            online = OnlineGenerativeModel(cardinality=k, correlations=corr, epochs=9, seed=0)
            for start in range(0, 700, 175):
                online.update(base[start:start + 175])
                for name, chunk in tests.items():
                    out[f"online warm/{tag} {start}/predict {name}"] = online.posteriors(chunk)
                out[f"online state/{tag} accuracies {start}"] = online.accuracies_.copy()
            record(f"online drain/{tag}", online.drain(), tests)
            out[f"online state/{tag} re-anchored accuracies"] = online.accuracies_.copy()
            out[f"online state/{tag} re-anchored counts"] = online.expected_correct_.copy()
            out[f"online state/{tag} re-anchored mass"] = np.asarray(online.posterior_mass_)
            online.update(base[:100])
            online.add_lf(np.concatenate([base[:, 0], base[:100, 0]]))
            online.remove_lf(1)
            record(f"online drain/{tag} after edits", online.drain(), {})
    for storage in ("csr", "dense"):
        matrix = LabelMatrix(EDGE).to_sparse() if storage == "csr" else LabelMatrix(EDGE)
        model = GenerativeModel(epochs=10, seed=0).fit(matrix, correlations=[(0, 3)])
        record(f"em {storage}-input fit/edge", model, {f"train {storage}": matrix})
    with open(path, "wb") as handle:
        pickle.dump(out, handle)
    print(f"{len(out)} records -> {path}")


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as handle_a, open(path_b, "rb") as handle_b:
        a, b = pickle.load(handle_a), pickle.load(handle_b)
    if a.keys() != b.keys():
        print("record sets differ:", sorted(set(a) ^ set(b))[:5])
        return 2
    groups: dict[str, list] = {}
    for key in a:
        group = key.partition("/")[0]
        if "/predict " in key:
            group += ", predict " + key.rsplit(" ", 1)[1]
        if a[key] is None or b[key] is None:
            delta = 0.0 if a[key] is b[key] else float("inf")
        else:
            x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
            delta = float("inf") if x.shape != y.shape else float(np.abs(x - y).max(initial=0.0))
        stats = groups.setdefault(group, [0, 0, 0.0])
        stats[0] += 1
        stats[1] += delta == 0.0
        stats[2] = max(stats[2], delta)
    for group, (count, exact, worst) in sorted(groups.items()):
        print(f"{group:42s} {exact:3d}/{count:3d} bit-identical, max |diff| = {worst:.3e}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        raise SystemExit(diff(sys.argv[2], sys.argv[3]))
    else:
        raise SystemExit(__doc__)
