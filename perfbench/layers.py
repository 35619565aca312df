"""Per-layer spans and counters, taken from outside the library.

``install`` wraps the names each library module looks up at call time; the
private ones (``_cd_core``, ``_exact_solve``, ``_merge_components``,
``_kmeans``, ``_connected_components``) carry counters the public API does
not expose.  When a later version deletes one of them, the metrics it feeds
are reported as absent and keep the value 0.

``metrics`` turns the spans and counters of one traced pass into the
``per_layer`` metrics of BENCHMARK.json.
"""

from __future__ import annotations

import numpy as np

from subspace_exemplars import classify, cluster, dataset, ffs, lasso
from subspace_exemplars import metrics as sx_metrics

SPLITS = (10, 20, 30, 40, 50)

UNITS = {
    "ffs.select_s": "s",
    "ffs.evals": "count",
    "ffs.evals_per_step": "count",
    "ffs.evals_vs_naive": "ratio",
    "ffs.solver_calls": "count",
    "ffs.targets_per_call": "count",
    "lasso.code_s": "s",
    "lasso.solver_calls": "count",
    "lasso.sweeps": "count",
    "lasso.sweeps_per_call": "count",
    "lasso.sweep_s": "s",
    "lasso.finisher_calls": "count",
    "lasso.finisher_per_target": "ratio",
    "lasso.finisher_s": "s",
    "lasso.max_gap": "value",
    "lasso.max_kkt": "value",
    "lasso.sp_rate": "ratio",
    "cluster.graph_s": "s",
    "cluster.edges": "count",
    "cluster.spectral_s": "s",
    "cluster.kmeans_s": "s",
    "cluster.components": "count",
    "cluster.isolated": "count",
    "cluster.cross_edges": "count",
    "cluster.merge_ops": "count",
    "cluster.merge_s": "s",
    "cluster.zero_code_warnings": "count",
    "cluster.isolated_warnings": "count",
    **{f"cluster.accuracy_x{x}": "%" for x in SPLITS},
    "classify.code_s": "s",
    "classify.residual_s": "s",
    "dataset.synth_s": "s",
    "dataset.csv_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.ref_s": "s",
}

_SOLVER = ["lasso.solver_calls", "lasso.sweeps", "lasso.sweeps_per_call", "lasso.sweep_s",
           "lasso.finisher_per_target", "ffs.solver_calls", "ffs.targets_per_call"]


def _hook(tr, absent, module, attr, span, feeds=(), after=None):
    if not tr.hook(module, attr, span, after):
        absent.update(feeds)


def install_dataset(tr, absent) -> None:
    """Spans around data generation and CSV input/output (set-up time)."""
    _hook(tr, absent, dataset, "synth_union_of_subspaces", "dataset.synth", ["dataset.synth_s"])
    for attr in ("save_csv", "load_csv"):
        _hook(tr, absent, dataset, attr, "dataset.csv", ["dataset.csv_s"])


def install(tr, absent) -> None:
    """Spans and counters around every layer an op passes through.

    The caller sets ``tr.case`` to the Case of the op in progress.
    """
    c = tr.counters
    tr.case, tr.indices, tr.keep, tr.sp_rates = None, [], None, []

    def cd_after(tr, args, kwargs, res):
        targets = args[1].shape[1]
        c["lasso.solver_calls"] += 1
        c["lasso.sweeps"] += res[3]
        c["lasso.targets"] += targets
        if tr.within("ffs.select"):
            c["ffs.solver_calls"] += 1
            c["ffs.targets"] += targets

    def select_after(tr, args, kwargs, ex):
        c["ffs.evals"] += ex.total_evals
        c["ffs.scan_evals"] += sum(step.evals for step in ex.trace[1:])
        c["ffs.steps"] += len(ex.trace) - 1
        c["ffs.naive_evals"] += ex.k * args[0].count
        tr.indices = list(ex.indices)

    def code_after(tr, args, kwargs, codes):
        C = np.column_stack([s.coeffs for s in codes])
        labels = tr.case.data.labels
        tr.keep = np.linalg.norm(C, axis=0) >= 1e-12
        tr.sp_rates.append(sx_metrics.subspace_preserving_rate(C, labels[tr.indices], labels))

    def graph_after(tr, args, kwargs, graph):
        i, j = np.nonzero(graph.matrix)
        upper = i < j
        labels = tr.case.data.labels[tr.keep]
        c["cluster.edges"] += int(upper.sum())
        c["cluster.cross_edges"] += int((labels[i[upper]] != labels[j[upper]]).sum())
        c["cluster.isolated"] += int((graph.matrix.sum(axis=1) == 0).sum())

    def components_after(tr, args, kwargs, comp):
        c["cluster.components"] += int(comp.max()) + 1

    for module in (ffs, cluster):
        _hook(tr, absent, module, "ffs_lazy", "ffs.select", after=select_after)
    for module in (lasso, ffs):
        _hook(tr, absent, module, "_cd_core", "lasso.cd", _SOLVER, cd_after)
    _hook(tr, absent, lasso, "_exact_solve", "lasso.finisher",
          ["lasso.finisher_calls", "lasso.finisher_per_target", "lasso.finisher_s"])
    _hook(tr, absent, cluster, "solve_lasso_batch", "cluster.code", after=code_after)
    _hook(tr, absent, classify, "solve_lasso_batch", "classify.code", after=code_after)
    _hook(tr, absent, cluster, "build_knn_graph", "cluster.graph", after=graph_after)
    _hook(tr, absent, cluster, "_connected_components", "cluster.connect",
          ["cluster.components"], components_after)
    _hook(tr, absent, cluster, "_merge_components", "cluster.merge",
          ["cluster.merge_ops", "cluster.merge_s"])
    _hook(tr, absent, cluster, "spectral_cluster", "cluster.spectral")
    _hook(tr, absent, cluster, "_kmeans", "cluster.kmeans", ["cluster.kmeans_s"])
    _hook(tr, absent, classify, "src_classify", "classify.classify")


def metrics(tr, *, certs, warnings, split_acc, wall_s, overhead_s, ref_s) -> dict[str, float]:
    """Per-layer metrics of one traced pass (plus set-up spans).

    ``wall_s`` is the summed op time of the traced pass; ``overhead_s`` is
    its host-adjusted op time minus that of the untraced pass before it.
    """
    total, own, calls = tr.totals()
    c = tr.counters

    def ratio(a, b):
        return a / b if b else 0.0

    finisher_calls = calls.get("lasso.finisher", 0)
    m = {
        "ffs.select_s": total.get("ffs.select", 0.0),
        "ffs.evals": c["ffs.evals"],
        "ffs.evals_per_step": ratio(c["ffs.scan_evals"], c["ffs.steps"]),
        "ffs.evals_vs_naive": ratio(c["ffs.evals"], c["ffs.naive_evals"]),
        "ffs.solver_calls": c["ffs.solver_calls"],
        "ffs.targets_per_call": ratio(c["ffs.targets"], c["ffs.solver_calls"]),
        "lasso.code_s": total.get("cluster.code", 0.0) + total.get("classify.code", 0.0),
        "lasso.solver_calls": c["lasso.solver_calls"],
        "lasso.sweeps": c["lasso.sweeps"],
        "lasso.sweeps_per_call": ratio(c["lasso.sweeps"], c["lasso.solver_calls"]),
        "lasso.sweep_s": own.get("lasso.cd", 0.0),
        "lasso.finisher_calls": finisher_calls,
        "lasso.finisher_per_target": ratio(finisher_calls, c["lasso.targets"]),
        "lasso.finisher_s": total.get("lasso.finisher", 0.0),
        "lasso.max_gap": max(g for g, _ in certs),
        "lasso.max_kkt": max(k for _, k in certs),
        "lasso.sp_rate": float(np.mean(tr.sp_rates)) if tr.sp_rates else 0.0,
        "cluster.graph_s": total.get("cluster.graph", 0.0),
        "cluster.edges": c["cluster.edges"],
        "cluster.spectral_s": own.get("cluster.spectral", 0.0),
        "cluster.kmeans_s": total.get("cluster.kmeans", 0.0),
        "cluster.components": c["cluster.components"],
        "cluster.isolated": c["cluster.isolated"],
        "cluster.cross_edges": c["cluster.cross_edges"],
        "cluster.merge_ops": calls.get("cluster.merge", 0),
        "cluster.merge_s": total.get("cluster.merge", 0.0),
        "cluster.zero_code_warnings": warnings["zero_code"],
        "cluster.isolated_warnings": warnings["isolated"],
        **{f"cluster.accuracy_x{x}": split_acc.get(x, 0.0) for x in SPLITS},
        "classify.code_s": total.get("classify.code", 0.0),
        "classify.residual_s": own.get("classify.classify", 0.0),
        "dataset.synth_s": total.get("dataset.synth", 0.0),
        "dataset.csv_s": total.get("dataset.csv", 0.0),
        "trace.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
        "host.ref_s": ref_s,
    }
    return {name: float(m[name]) for name in UNITS}
