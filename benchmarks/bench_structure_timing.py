"""Section 3.2: structure-learning cost vs the number of modeled correlations.

Verifies the qualitative claim that fitting the generative model with the
elbow-point correlation set is substantially cheaper than fitting it with the
full (low-threshold) correlation set, while structure learning itself is a
one-off cost.  ``run_structure_benchmark`` is importable and feeds the
``structure_learning`` section of the ``BENCH_*.json`` snapshot written by
``scripts/run_benchmarks.py``.

``run_solver_shapes`` times the structure fit alone on the two node-size
profiles the served workloads produce: a cdr-shaped Λ (≈ 20 voting LFs of
10–114 rows over 32 columns, every node on the sparse stacked products) and
an edit-loop-shaped one (22 LFs × 5 000 rows: 21 nodes on gemv, one
stacked).  Each record reports ``loops`` (ISTA loops the fit runs, one per
batch of product groups) and ``nonzero_share`` (stored nonzeros over
elements of the stacked designs — what the sparse products touch).
"""

import time

import numpy as np

from repro.datasets.synthetic import generate_correlated_label_matrix, generate_label_matrix
from repro.labeling.sparse import lower_to_sparse
from repro.labelmodel import structure
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.structure import StructureLearner

#: ``(num_points, propensities)`` of the two solver shapes.
SOLVER_SHAPES = {
    "cdr": (485, [*np.linspace(10 / 485, 114 / 485, 20), *[0.01] * 12]),
    "edit_loop": (5_000, [*np.linspace(0.05, 0.54, 21), 0.027]),
}


def run_structure_benchmark(
    num_points: int = 600,
    num_independent: int = 8,
    num_groups: int = 6,
    group_size: int = 3,
    epochs: int = 8,
    seed: int = 0,
):
    """Time structure learning plus model fits with few vs many correlations."""
    data = generate_correlated_label_matrix(
        num_points=num_points,
        num_independent=num_independent,
        num_groups=num_groups,
        group_size=group_size,
        seed=seed,
    )
    start = time.perf_counter()
    learner = StructureLearner().fit(data.label_matrix)
    structure_seconds = time.perf_counter() - start
    few = learner.select(0.2)
    many = learner.select(0.005)
    start = time.perf_counter()
    GenerativeModel(epochs=epochs).fit(data.label_matrix, correlations=few)
    few_seconds = time.perf_counter() - start
    start = time.perf_counter()
    GenerativeModel(epochs=epochs).fit(data.label_matrix, correlations=many)
    many_seconds = time.perf_counter() - start
    return {
        "num_points": num_points,
        "num_lfs": data.label_matrix.num_lfs,
        "epochs": epochs,
        "structure_seconds": structure_seconds,
        "few_correlations": len(few),
        "many_correlations": len(many),
        "few_fit_seconds": few_seconds,
        "many_fit_seconds": many_seconds,
    }


def solver_profile(label_matrix, min_votes: int = 10) -> tuple[int, float]:
    """``(loops, nonzero_share)`` of a default-configured fit of ``label_matrix``."""
    sparse = lower_to_sparse(label_matrix)
    width = sparse.shape[1] + 1
    votes = np.diff(sparse.csc()[0])
    solved = [j for j in range(sparse.shape[1]) if votes[j] >= min_votes]
    loops = len(structure._batches(structure._node_groups(solved, votes, width), votes, width))
    designs = structure._NodeDesigns(sparse, categorical=False)
    nonzeros = elements = 0
    for j in solved:
        if not structure._solved_alone(votes[j], width):
            design = np.zeros((votes[j], width))
            designs.fill(j, design, np.empty(votes[j]))
            nonzeros += np.count_nonzero(design)
            elements += design.size
    return loops, nonzeros / max(elements, 1)


def run_solver_shapes(repeats: int = 5, edit_points: int = 5_000, seed: int = 0) -> list[dict]:
    """Best-of-``repeats`` structure fit on the cdr and edit-loop node-size profiles."""
    records = []
    for shape, (num_points, propensities) in SOLVER_SHAPES.items():
        if shape == "edit_loop":
            num_points = edit_points
        matrix = generate_label_matrix(
            num_points=num_points, num_lfs=len(propensities), propensity=propensities, seed=seed
        ).label_matrix.to_sparse()
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            StructureLearner(seed=0).fit(matrix)
            seconds.append(time.perf_counter() - start)
        loops, nonzero_share = solver_profile(matrix)
        records.append(
            {
                "shape": shape,
                "num_points": num_points,
                "num_lfs": matrix.num_lfs,
                "structure_seconds": min(seconds),
                "loops": loops,
                "nonzero_share": nonzero_share,
            }
        )
    return records


def format_record(record) -> str:
    return (
        f"structure fit {record['structure_seconds']:.3f}s; "
        f"|C|={record['few_correlations']} -> {record['few_fit_seconds']:.3f}s ; "
        f"|C|={record['many_correlations']} -> {record['many_fit_seconds']:.3f}s"
    )


def format_shapes(records) -> str:
    return "\n".join(
        f"{record['shape']:9s} {record['num_points']:5d} x {record['num_lfs']:2d}: "
        f"fit {record['structure_seconds']:.4f}s in {record['loops']} loops, "
        f"stacked nonzero share {record['nonzero_share']:.3f}"
        for record in records
    )


def test_structure_timing(run_once):
    record = run_once(run_structure_benchmark)
    print("\n[Structure timing] " + format_record(record))
    assert record["many_correlations"] >= record["few_correlations"]


def test_solver_shapes(run_once):
    records = run_once(run_solver_shapes, repeats=1, edit_points=1_000)
    print("\n[Structure solver shapes]\n" + format_shapes(records))
    cdr, edit_loop = records
    assert cdr["loops"] == 1 and 0 < cdr["nonzero_share"] < 0.5  # every node stacked
    assert edit_loop["loops"] < 22  # the gemv nodes share loops
