"""The import contract: scipy loads only at the call that needs it.

Importing the package, selecting, classifying and clustering load no scipy
module; only the scoring metrics and the linear-program oracles
(``l1_min_exact``, ``minkowski_functional``) load ``scipy.optimize``, and the
inradius oracle ``scipy.spatial``.  The circle's worst-case cost solves no
linear program.  Each check runs in a fresh interpreter, since the test
session has loaded scipy long ago.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subspace_exemplars

# the src directory this session imports the package from; pytest's pythonpath
# setting does not reach a child process
SRC = str(Path(subspace_exemplars.__file__).resolve().parent.parent)

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy as np
import subspace_exemplars as se

out = {"file": se.__file__, "import": scipy_modules()}
data = se.synth_union_of_subspaces(se.SubspaceSpec(10, (3, 3), (20, 10), 0.0, 0))
ex = se.ffs_lazy(data, 1e4, 6, seed=0)
se.src_classify(data, se.LabeledExemplars.from_data(ex, data), 1e4)
out["classify"] = scipy_modules()
se.esc_pipeline(data, 1e4, 6, 3, 2)
out["cluster"] = scipy_modules()
out["sup"] = se.sup_l1_cost_on_sphere(np.eye(2), 0.1)
out["sphere"] = scipy_modules()
truth, pred = [0, 0, 0, 1, 1, 1, 2, 2], [1, 1, 0, 0, 0, 0, 2, 3]
out["accuracy"] = se.clustering_accuracy(truth, pred)
out["fscore"] = se.clustering_fscore(truth, pred)
out["l1"] = se.l1_min_exact(np.eye(2), np.array([0.6, -0.8]))[0]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def child():
    done = subprocess.run([sys.executable, "-c", CHILD, SRC], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_child_imports_the_package_under_test(child):
    assert Path(child["file"]).resolve() == Path(subspace_exemplars.__file__).resolve()


def test_importing_the_package_loads_no_scipy(child):
    assert child["import"] == []


def test_selection_and_classification_load_no_scipy(child):
    assert child["classify"] == []


def test_clustering_loads_no_scipy(child):
    assert child["cluster"] == []


def test_the_worst_case_cost_over_the_circle_loads_no_scipy_optimize(child):
    assert not [m for m in child["sphere"] if m == "scipy.optimize" or m.startswith("scipy.optimize.")]
    # over the identity the L1 value at (cos t, sin t) is |cos t| + |sin t|
    t = np.arange(0.0, 2.0 * math.pi, 0.1)
    assert child["sup"] == pytest.approx((np.abs(np.cos(t)) + np.abs(np.sin(t))).max(), abs=1e-12)


def test_scipy_backed_calls_return_the_same_values(child):
    # 0->1, 1->0, 2->2 match 2 + 3 + 1 of the 8 points
    assert child["accuracy"] == pytest.approx(75.0, abs=1e-12)
    # per class F: 2*(2/2)(2/3)/(2/2+2/3) = 0.8, 2*(3/4)(3/3)/(3/4+1) = 6/7,
    # 2*(1/1)(1/2)/(1+1/2) = 2/3, averaged over the 3 true classes
    assert child["fscore"] == pytest.approx(100.0 * (0.8 + 6 / 7 + 2 / 3) / 3, abs=1e-9)
    assert child["l1"] == pytest.approx(1.4, abs=1e-9)


def test_the_package_exports_each_modules_public_names_once():
    modules = [importlib.import_module(f"subspace_exemplars.{name}") for name in
               ("classify", "cluster", "dataset", "ffs", "geometry", "lasso", "metrics", "selfrep")]
    names = [name for module in modules for name in module.__all__]
    assert subspace_exemplars.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(subspace_exemplars, name) is getattr(module, name)
    assert subspace_exemplars.select is importlib.import_module("subspace_exemplars.ffs").select
    assert subspace_exemplars.METHODS == ("ffs", "random")
