import json

import numpy as np
import pytest

from subspace_exemplars.cli import main


def _run(*args):
    return main([str(a) for a in args])


def test_synth_writes_expected_rows(tmp_path):
    out = tmp_path / "data.csv"
    rc = _run("synth", "--D", 5, "--dims", "3,3", "--counts", "10,90",
              "--seed", 7, "--out", out)
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 100
    assert all(len(line.split(",")) == 6 for line in lines)  # 5 features + label


def test_synth_rejects_bad_counts(tmp_path, capsys):
    rc = _run("synth", "--D", 5, "--dims", "3", "--counts", "2",
              "--out", tmp_path / "x.csv")
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run("synth", "--D", 4, "--dims", "2,2", "--counts", "6,6", "--seed", 3, "--out", a)
    _run("synth", "--D", 4, "--dims", "2,2", "--counts", "6,6", "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    _run("synth", "--D", 8, "--dims", "2,2", "--counts", "15,25",
         "--seed", 1, "--out", path)
    return path


def test_select_json_schema(dataset, tmp_path):
    out = tmp_path / "sel.json"
    rc = _run("select", "--data", dataset, "--with-labels", "--lambda", 50,
              "--k", 5, "--seed", 2, "--out", out)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "indices", "k", "lambda", "seed", "trace"}
    assert len(doc["indices"]) == 5
    assert doc["lambda"] == 50.0
    assert all(set(step) == {"selected", "f_value", "evals"} for step in doc["trace"])


def test_cluster_outputs_and_determinism(dataset, tmp_path):
    labels = tmp_path / "labels.csv"
    metrics = tmp_path / "metrics.json"
    rc = _run("cluster", "--data", dataset, "--with-labels", "--lambda", 100,
              "--k", 6, "--t", 3, "--n-clusters", 2, "--seed", 0,
              "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 0
    lines = labels.read_text().strip().splitlines()
    assert len(lines) == 40
    doc = json.loads(metrics.read_text())
    assert doc["config"]["command"] == "cluster"
    assert doc["metrics"]["accuracy"] == 100.0
    assert 0.0 <= doc["metrics"]["imbalance"] <= 1.0
    assert doc["metrics"]["sp_rate"] >= 0.99

    labels2 = tmp_path / "labels2.csv"
    metrics2 = tmp_path / "metrics2.json"
    _run("cluster", "--data", dataset, "--with-labels", "--lambda", 100,
         "--k", 6, "--t", 3, "--n-clusters", 2, "--seed", 0,
         "--labels-out", labels2, "--metrics-out", metrics2)
    assert labels.read_bytes() == labels2.read_bytes()


def test_classify_from_label_column(dataset, tmp_path):
    labels = tmp_path / "pred.csv"
    metrics = tmp_path / "m.json"
    rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
              "--k", 4, "--seed", 0, "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert doc["metrics"]["accuracy"] == 100.0


def test_classify_with_exemplar_label_file(dataset, tmp_path):
    sel = tmp_path / "sel.json"
    _run("select", "--data", dataset, "--with-labels", "--lambda", 1e4,
         "--k", 4, "--seed", 0, "--out", sel)
    indices = json.loads(sel.read_text())["indices"]
    truth = np.array([0] * 15 + [1] * 25)
    mapping = {str(i): int(truth[i]) for i in indices}
    labfile = tmp_path / "exlab.json"
    labfile.write_text(json.dumps(mapping))
    labels = tmp_path / "pred.csv"
    metrics = tmp_path / "m.json"
    rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
              "--k", 4, "--seed", 0, "--exemplar-labels", labfile,
              "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 0
    pred = [int(v) for v in labels.read_text().split()]
    assert (np.array(pred) == truth).mean() == 1.0


def test_eval_perfect_prediction(dataset, tmp_path):
    labels = tmp_path / "pred.csv"
    metrics = tmp_path / "m.json"
    _run("cluster", "--data", dataset, "--with-labels", "--lambda", 100,
         "--k", 6, "--t", 3, "--n-clusters", 2, "--seed", 0,
         "--labels-out", labels, "--metrics-out", metrics)
    out = tmp_path / "eval.json"
    rc = _run("eval", "--truth", labels, "--pred", labels, "--out", out)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["metrics"]["accuracy"] == 100.0
    assert doc["metrics"]["fscore"] == 100.0


def test_eval_rejects_non_integer_labels(tmp_path, capsys):
    truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth.write_text("1\n0\n")
    pred.write_text("1.7\n0\n")
    rc = _run("eval", "--truth", truth, "--pred", pred, "--out", tmp_path / "eval.json")
    assert rc == 2
    assert "1.7" in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


def test_select_rejects_a_negative_tol(dataset, tmp_path, capsys):
    out = tmp_path / "sel.json"
    rc = _run("select", "--data", dataset, "--with-labels", "--k", 3, "--tol", -1, "--out", out)
    assert rc == 2
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_eq15(tmp_path):
    out = tmp_path / "audit.json"
    rc = _run("oracle", "--check", "eq15", "--trials", 25, "--out", out)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["max_deviation"] <= 1e-8


def test_oracle_chain(tmp_path):
    out = tmp_path / "audit.json"
    rc = _run("oracle", "--check", "chain", "--trials", 2, "--seed", 5,
              "--resolution", 2e-3, "--out", out)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["max_deviation"] <= 2e-3
