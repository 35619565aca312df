"""Command-line front end.

Subcommands wire the library end to end: ``synth`` writes a synthetic
union-of-subspaces dataset, ``select`` picks exemplars, ``cluster`` and
``classify`` produce label files plus a metrics report, ``eval`` scores a
prediction against ground truth, and ``oracle`` runs the geometry
self-checks.  Every JSON report is ``{"config": vars(args), **fields}``,
written with sorted keys by the one function ``_write_json``, and all
commands are deterministic functions of their inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .classify import LabeledExemplars, src_classify
from .cluster import esc_pipeline
from .dataset import ParseError, SubspaceSpec, load_csv, save_csv, synth_union_of_subspaces
from .ffs import METHODS, select
from .geometry import SymmetricHull, _l1_lp, covering_radius, inradius, sup_l1_cost_on_sphere
from .lasso import solve_lasso_batch
from .metrics import clustering_accuracy, clustering_fscore, imbalance, subspace_preserving_rate

_EQ15_LAMS = (10.0, 100.0, 1000.0)  # the levels at which the eq15 oracle codes each target


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subspace-exemplars",
        description="Exemplar selection, clustering and classification in a union of subspaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    sp.add_argument("--D", type=int, required=True, help="ambient dimension")
    sp.add_argument("--dims", required=True, help="comma-separated subspace dimensions, e.g. 3,3")
    sp.add_argument("--counts", required=True, help="comma-separated samples per subspace")
    sp.add_argument("--sigma", type=float, default=0.0, help="noise std before normalization")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--coefficients", choices=("sphere", "nonneg"), default="sphere")
    sp.add_argument("--out", required=True, help="output CSV path")

    def common(q):
        q.add_argument("--data", required=True, help="input CSV (rows are samples)")
        q.add_argument("--with-labels", action="store_true", help="CSV has a final label column")
        q.add_argument("--lambda", dest="lam", type=float, default=100.0)
        q.add_argument("--k", type=int, required=True, help="number of exemplars")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--method", choices=METHODS, default="ffs")

    sel = sub.add_parser("select", help="select exemplars, write a selection JSON")
    common(sel)
    sel.add_argument("--out", required=True, help="output selection JSON path")

    cl = sub.add_parser("cluster", help="exemplar-based subspace clustering")
    common(cl)
    cl.add_argument("--t", type=int, default=3, help="code graph neighbors")
    cl.add_argument("--n-clusters", type=int, required=True)
    cl.add_argument("--labels-out", required=True, help="output labels CSV (one integer per line)")
    cl.add_argument("--metrics-out", required=True, help="output metrics JSON")

    cf = sub.add_parser("classify", help="classify from labeled exemplars")
    common(cf)
    cf.add_argument("--exemplar-labels", default=None,
                    help='JSON file {"index": class, ...}; default reads the data label column')
    cf.add_argument("--labels-out", required=True)
    cf.add_argument("--metrics-out", required=True)

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("--truth", required=True, help="labels CSV, one integer per line")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--out", default=None, help="metrics JSON path (stdout when omitted)")

    orc = sub.add_parser("oracle", help="run geometry self-checks")
    orc.add_argument("--check", choices=("eq15", "chain"), required=True)
    orc.add_argument("--trials", type=int, default=100)
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--resolution", type=float, default=1e-3)
    orc.add_argument("--out", default=None, help="audit JSON path (stdout when omitted)")
    return p


def _write_json(args, path, **fields) -> None:
    """Write {"config": vars(args), **fields} to path, or to stdout when path is None."""
    text = json.dumps({"config": vars(args), **fields}, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _read_label_file(path):
    """Integer labels, one per line; any other value raises ParseError, as in load_csv."""
    vals = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                try:
                    vals.append(int(line))
                except ValueError:
                    raise ParseError(lineno, f"bad label {line!r}") from None
    return np.asarray(vals, dtype=int)


def _read_exemplar_labels(path, n: int) -> dict[int, int]:
    """The JSON object {"index": class, ...} of a dataset of n points.

    Every index must be an integer in [0, n) without leading zeros and every
    class an integer >= 0, selected or not; errors name the file.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f'{path}: exemplar labels must be a JSON object {{"index": class, ...}}')
    for key, c in raw.items():
        if not (key.isascii() and key.isdigit() and key == str(int(key)) and int(key) < n):
            raise ValueError(f"{path}: exemplar index {key!r} must be an integer in [0, {n}), no leading zeros")
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValueError(f"{path}: class of exemplar {key} must be an integer, got {c!r}")
        if c < 0:
            raise ValueError(f"{path}: class of exemplar {key} must be >= 0, got {c}")
    return {int(key): c for key, c in raw.items()}


def _cmd_synth(args) -> int:
    dims = tuple(int(v) for v in args.dims.split(","))
    counts = tuple(int(v) for v in args.counts.split(","))
    spec = SubspaceSpec(args.D, dims, counts, args.sigma, args.seed, args.coefficients)
    data = synth_union_of_subspaces(spec)
    save_csv(data, args.out, with_labels=True)
    return 0


def _cmd_select(args) -> int:
    data = load_csv(args.data, with_labels=args.with_labels)
    result = select(data, args.method, args.lam, args.k, args.seed)
    _write_json(args, args.out, **json.loads(result.to_json()))
    return 0


def _metrics_report(truth, pred, exemplars=None, codes=None):
    """Scores of pred against truth (all None without truth).

    With the exemplar indices also the imbalance of their classes, and with
    the (M, N) code matrix over them also the subspace-preserving rate.
    """
    report = {"accuracy": None, "fscore": None, "imbalance": None, "sp_rate": None}
    if truth is not None:
        report["accuracy"] = clustering_accuracy(truth, pred)
        report["fscore"] = clustering_fscore(truth, pred)
        if exemplars is not None:
            ex_labels = truth[list(exemplars)]
            report["imbalance"] = imbalance(np.bincount(ex_labels, minlength=truth.max() + 1))
            if codes is not None:
                report["sp_rate"] = subspace_preserving_rate(codes, ex_labels, truth)
    return report


def _cmd_cluster(args) -> int:
    data = load_csv(args.data, with_labels=args.with_labels)
    assignment, exemplars, codes = esc_pipeline(
        data, args.lam, args.k, args.t, args.n_clusters, args.seed,
        selection=args.method, return_details=True,
    )
    with open(args.labels_out, "w") as fh:  # plain text, whatever the file name
        np.savetxt(fh, assignment.labels, fmt="%d")
    report = _metrics_report(data.labels, assignment.labels, exemplars.indices, codes.coeffs)
    _write_json(args, args.metrics_out, metrics=report, exemplars=list(exemplars.indices))
    return 0


def _cmd_classify(args) -> int:
    data = load_csv(args.data, with_labels=args.with_labels)
    if args.exemplar_labels is not None:
        labels = _read_exemplar_labels(args.exemplar_labels, data.count)
    elif data.labels is not None:
        labels = dict(enumerate(data.labels.tolist()))
    else:
        raise ValueError("no label column and no --exemplar-labels file")
    exemplar_set = select(data, args.method, args.lam, args.k, args.seed)
    lab = LabeledExemplars.from_labels(list(exemplar_set.indices), labels)
    assignment = src_classify(data, lab, args.lam)
    with open(args.labels_out, "w") as fh:  # plain text, whatever the file name
        np.savetxt(fh, assignment.labels, fmt="%d")
    report = _metrics_report(data.labels, assignment.labels, exemplar_set.indices)
    _write_json(args, args.metrics_out, metrics=report, exemplars=list(exemplar_set.indices))
    return 0


def _cmd_eval(args) -> int:
    truth = _read_label_file(args.truth)
    pred = _read_label_file(args.pred)
    _write_json(args, args.out, metrics=_metrics_report(truth, pred))
    return 0


def _cmd_oracle(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    if args.check == "eq15":
        # the gauge g of x over conv(+-X0) and the LP's dual point nu bracket
        # each certified cost: g - |nu|^2 / (2 lam) <= f_lam(x) <= g
        worst = 0.0
        for _ in range(args.trials):
            m = int(rng.integers(3, 8))
            pts = rng.standard_normal((3, m))
            pts /= np.linalg.norm(pts, axis=0)
            x = pts @ rng.standard_normal(m)
            n = np.linalg.norm(x)
            if n < 1e-9:
                continue
            x /= n
            gauge, _, nu = _l1_lp(pts, x)
            for lam in _EQ15_LAMS:
                f = solve_lasso_batch(pts, x, lam).objectives[0]
                worst = max(worst, gauge - nu @ nu / (2.0 * lam) - f, f - gauge)
        doc = {"check": "eq15", "trials": args.trials, "max_deviation": float(worst),
               "tolerance": 1e-8, "pass": bool(worst <= 1e-8)}
    else:
        # worst-case cost vs inradius vs covering radius on the circle
        worst = 0.0
        for _ in range(args.trials):
            m = int(rng.integers(2, 9))
            ang = rng.uniform(0.0, np.pi, m)
            pts = np.vstack([np.cos(ang), np.sin(ang)])
            hull = SymmetricHull.from_points(pts)
            f_sup = sup_l1_cost_on_sphere(pts, args.resolution)
            inv_r = 1.0 / inradius(hull)
            gamma = covering_radius(hull.generators, args.resolution)
            inv_cos = 1.0 / np.cos(gamma)
            worst = max(worst, abs(f_sup - inv_r), abs(f_sup - inv_cos), abs(inv_r - inv_cos))
        doc = {"check": "chain", "trials": args.trials, "max_deviation": float(worst),
               "tolerance": 2e-3, "pass": bool(worst <= 2e-3)}
    _write_json(args, args.out, **doc)
    return 0 if doc["pass"] else 1


_HANDLERS = {
    "synth": _cmd_synth,
    "select": _cmd_select,
    "cluster": _cmd_cluster,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
