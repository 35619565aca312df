import json

import numpy as np
import pytest

from subspace_exemplars.cli import main
from subspace_exemplars.ffs import METHODS


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


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_synth_rejects_a_bad_noise_level(tmp_path, capsys, sigma):
    out = tmp_path / "x.csv"
    rc = _run("synth", "--D", 5, "--dims", "3", "--counts", "10", "--sigma", sigma,
              "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "noise_sigma" in err
    assert not out.exists()


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


def test_select_json_is_byte_identical_across_runs(dataset, tmp_path):
    out = tmp_path / "sel.json"
    runs = []
    for _ in range(2):
        rc = _run("select", "--data", dataset, "--with-labels", "--lambda", 50,
                  "--k", 6, "--seed", 2, "--out", out)
        assert rc == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


_SELECTION = {"data", "with_labels", "lam", "k", "seed", "method"}


@pytest.mark.parametrize("command, extra, keys, config", [
    ("select", ["--k", 5, "--out", "OUT"],
     {"indices", "k", "lambda", "seed", "trace"}, _SELECTION | {"out"}),
    ("cluster", ["--k", 6, "--n-clusters", 2, "--labels-out", "LABELS", "--metrics-out", "OUT"],
     {"metrics", "exemplars"}, _SELECTION | {"t", "n_clusters", "labels_out", "metrics_out"}),
    ("classify", ["--k", 4, "--labels-out", "LABELS", "--metrics-out", "OUT"],
     {"metrics", "exemplars"}, _SELECTION | {"exemplar_labels", "labels_out", "metrics_out"}),
    ("eval", ["--out", "OUT"], {"metrics"}, {"truth", "pred", "out"}),
    ("oracle", ["--check", "eq15", "--trials", 3, "--out", "OUT"],
     {"check", "trials", "max_deviation", "tolerance", "pass"},
     {"check", "trials", "seed", "resolution", "out"}),
])
def test_every_json_report_is_its_config_and_fields(dataset, tmp_path, command, extra, keys,
                                                    config):
    # every report is {"config": <the subcommand's parser destinations>, **fields}
    out, labels = tmp_path / "report.json", tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    data = {"eval": ["--truth", labels, "--pred", labels],
            "oracle": []}.get(command, ["--data", dataset, "--with-labels"])
    paths = {"OUT": out, "LABELS": labels}
    assert _run(command, *data, *[paths.get(a, a) for a in extra]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == keys | {"config"}
    assert set(doc["config"]) == config | {"command"}
    assert doc["config"]["command"] == command


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
    # cluster ids follow the graph components' order, lowest point first
    assert lines == ["0"] * 15 + ["1"] * 25

    # same paths, because the metrics JSON records them in its config
    first = labels.read_bytes(), metrics.read_bytes()
    labels.unlink()
    metrics.unlink()
    rc = _run("cluster", "--data", dataset, "--with-labels", "--lambda", 100,
              "--k", 6, "--t", 3, "--n-clusters", 2, "--seed", 0,
              "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 0
    assert (labels.read_bytes(), metrics.read_bytes()) == first


def test_classify_from_label_column(dataset, tmp_path):
    labels = tmp_path / "pred.csv"
    metrics = tmp_path / "m.json"
    rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
              "--k", 4, "--seed", 0, "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert doc["metrics"]["accuracy"] == 100.0


def test_classify_outputs_are_byte_identical_across_runs(dataset, tmp_path):
    labels = tmp_path / "pred.csv"
    metrics = tmp_path / "m.json"
    runs = []
    for _ in range(2):
        labels.unlink(missing_ok=True)
        metrics.unlink(missing_ok=True)
        rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
                  "--k", 4, "--seed", 0, "--labels-out", labels, "--metrics-out", metrics)
        assert rc == 0
        runs.append((labels.read_bytes(), metrics.read_bytes()))
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("content, message", [
    ("{}", "no class given for exemplar index"),
    ("[0, 1]", "JSON object"),
    ("LABELS", "must be an integer, got 1.7"),
])
def test_classify_rejects_a_bad_exemplar_label_file(dataset, tmp_path, capsys, content, message):
    sel = tmp_path / "sel.json"
    _run("select", "--data", dataset, "--with-labels", "--lambda", 1e4,
         "--k", 4, "--seed", 0, "--out", sel)
    indices = json.loads(sel.read_text())["indices"]
    # every selected exemplar labelled, one of them with a non-integer class
    labelled = json.dumps({str(i): 1.7 if i == indices[-1] else 0 for i in indices})
    labfile = tmp_path / "exlab.json"
    labfile.write_text(content.replace("LABELS", labelled))
    labels = tmp_path / "pred.csv"
    rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
              "--k", 4, "--seed", 0, "--exemplar-labels", labfile,
              "--labels-out", labels, "--metrics-out", tmp_path / "m.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not labels.exists()


@pytest.mark.parametrize("content, message", [
    ("[0, 1]", "JSON object"),
    ("{", "not JSON"),
    ('{"x": 0}', "exemplar index 'x' must be an integer in [0, 40)"),
    ('{"1.0": 0}', "exemplar index '1.0'"),
    ('{"-1": 0}', "exemplar index '-1'"),
    ('{"40": 0}', "exemplar index '40'"),
    ('{"1": 0, "01": 1}', "exemplar index '01' must be an integer in [0, 40), no leading zeros"),
    ('{"39": 1.7}', "must be an integer, got 1.7"),
    ('{"39": true}', "must be an integer, got True"),
    ('{"0": 0, "39": -1}', "must be >= 0, got -1"),
])
def test_classify_checks_the_exemplar_label_file_before_selection(
        dataset, tmp_path, capsys, monkeypatch, content, message):
    from subspace_exemplars import cli

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran")

    # the name the command calls, bound when cli was imported
    monkeypatch.setattr(cli, "select", no_selection)
    labfile = tmp_path / "exlab.json"
    labfile.write_text(content)
    labels, metrics = tmp_path / "pred.csv", tmp_path / "m.json"
    rc = _run("classify", "--data", dataset, "--with-labels", "--k", 4,
              "--exemplar-labels", labfile, "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {labfile}:") and message in err
    assert not labels.exists() and not metrics.exists()


def test_classify_rejects_a_negative_class_on_an_unselected_index(dataset, tmp_path, capsys):
    sel = tmp_path / "sel.json"
    _run("select", "--data", dataset, "--with-labels", "--lambda", 1e4,
         "--k", 4, "--seed", 0, "--out", sel)
    indices = json.loads(sel.read_text())["indices"]
    unselected = min(set(range(40)) - set(indices))
    mapping = {str(i): 0 for i in indices}
    mapping[str(unselected)] = -1
    labfile = tmp_path / "exlab.json"
    labfile.write_text(json.dumps(mapping))
    labels, metrics = tmp_path / "pred.csv", tmp_path / "m.json"
    rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
              "--k", 4, "--seed", 0, "--exemplar-labels", labfile,
              "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 2
    assert f"class of exemplar {unselected} must be >= 0, got -1" in capsys.readouterr().err
    assert not labels.exists() and not metrics.exists()


def test_cluster_rejects_a_non_positive_cluster_count(dataset, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    for count in (0, -1):
        rc = _run("cluster", "--data", dataset, "--with-labels", "--k", 6,
                  "--n-clusters", count, "--labels-out", labels,
                  "--metrics-out", tmp_path / "m.json")
        assert rc == 2
        assert "n_clusters" in capsys.readouterr().err
    assert not labels.exists()


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


def test_eval_rejects_empty_label_files(tmp_path, capsys):
    truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth.write_text("")
    pred.write_text("\n")
    rc = _run("eval", "--truth", truth, "--pred", pred, "--out", tmp_path / "eval.json")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "eval.json").exists()


@pytest.fixture()
def negative_label_data(dataset, tmp_path):
    rows = dataset.read_text().splitlines()
    rows[3] = rows[3].rsplit(",", 1)[0] + ",-1"
    path = tmp_path / "negative.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("command, extra", [
    ("cluster", ["--t", 3, "--n-clusters", 2]),
    ("classify", []),
])
def test_a_negative_label_in_the_data_is_rejected(negative_label_data, tmp_path, capsys,
                                                   command, extra):
    labels, metrics = tmp_path / "pred.csv", tmp_path / "m.json"
    rc = _run(command, "--data", negative_label_data, "--with-labels", "--k", 4, *extra,
              "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-1" in err
    assert not labels.exists() and not metrics.exists()


def test_classify_rejects_a_negative_exemplar_class(dataset, tmp_path, capsys):
    sel = tmp_path / "sel.json"
    _run("select", "--data", dataset, "--with-labels", "--lambda", 1e4,
         "--k", 4, "--seed", 0, "--out", sel)
    indices = json.loads(sel.read_text())["indices"]
    labfile = tmp_path / "exlab.json"
    labfile.write_text(json.dumps({str(i): -1 if i == indices[-1] else 0 for i in indices}))
    labels, metrics = tmp_path / "pred.csv", tmp_path / "m.json"
    rc = _run("classify", "--data", dataset, "--with-labels", "--lambda", 1e4,
              "--k", 4, "--seed", 0, "--exemplar-labels", labfile,
              "--labels-out", labels, "--metrics-out", metrics)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-1" in err
    assert not labels.exists() and not metrics.exists()


@pytest.mark.parametrize("k", [0, 101])
@pytest.mark.parametrize("method", METHODS)
def test_select_rejects_k_outside_1_to_n_for_every_method(tmp_path, capsys, method, k):
    data, out = tmp_path / "data.csv", tmp_path / "sel.json"
    _run("synth", "--D", 5, "--dims", "3,3", "--counts", "10,90", "--seed", 7, "--out", data)
    rc = _run("select", "--data", data, "--with-labels", "--k", k, "--method", method,
              "--out", out)
    assert rc == 2
    assert f"k={k} must be in [1, N=100]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--tol", "--first-index"])
@pytest.mark.parametrize("command", ["select", "cluster", "classify"])
def test_solver_settings_are_not_command_line_options(dataset, tmp_path, capsys, command, option):
    sel, labels, metrics = tmp_path / "sel.json", tmp_path / "p.csv", tmp_path / "m.json"
    extra = {"select": ["--out", sel],
             "cluster": ["--n-clusters", 2, "--labels-out", labels, "--metrics-out", metrics],
             "classify": ["--labels-out", labels, "--metrics-out", metrics]}
    with pytest.raises(SystemExit) as exc:
        _run(command, "--data", dataset, "--with-labels", "--k", 3, option, 1, *extra[command])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not (sel.exists() or labels.exists() or metrics.exists())


@pytest.mark.parametrize("command", ["select", "cluster", "classify"])
def test_the_naive_selector_is_not_a_method(dataset, tmp_path, capsys, command):
    # ffs_naive selects what "ffs" selects, so it is a reference, not a method
    sel, labels, metrics = tmp_path / "sel.json", tmp_path / "p.csv", tmp_path / "m.json"
    extra = {"select": ["--out", sel],
             "cluster": ["--n-clusters", 2, "--labels-out", labels, "--metrics-out", metrics],
             "classify": ["--labels-out", labels, "--metrics-out", metrics]}
    with pytest.raises(SystemExit) as exc:
        _run(command, "--data", dataset, "--with-labels", "--k", 3, "--method", "ffs-naive",
             *extra[command])
    assert exc.value.code == 2
    assert "invalid choice: 'ffs-naive'" in capsys.readouterr().err
    assert not (sel.exists() or labels.exists() or metrics.exists())


@pytest.mark.parametrize("method", METHODS)
def test_select_rejects_a_bad_lambda_for_every_method(dataset, tmp_path, capsys, method):
    out = tmp_path / "sel.json"
    rc = _run("select", "--data", dataset, "--with-labels", "--lambda", 0.5, "--k", 3,
              "--method", method, "--out", out)
    assert rc == 2
    assert "lam must be finite and > 1, got 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_select_rejects_data_off_the_unit_sphere(tmp_path, capsys):
    from subspace_exemplars import DataMatrix, save_csv

    data, out = tmp_path / "raw.csv", tmp_path / "sel.json"
    save_csv(DataMatrix(3 * np.random.default_rng(0).standard_normal((5, 40))), data)
    rc = _run("select", "--data", data, "--lambda", 30, "--k", 5, "--out", out)
    assert rc == 2
    assert "unit norm" in capsys.readouterr().err
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


@pytest.mark.parametrize("check", ["eq15", "chain"])
@pytest.mark.parametrize("trials", [0, -1])
def test_oracle_rejects_a_non_positive_trial_count(tmp_path, capsys, check, trials):
    out = tmp_path / "audit.json"
    rc = _run("oracle", "--check", check, "--trials", trials, "--out", out)
    assert rc == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["-0.01", "0", "nan"])
def test_oracle_rejects_a_bad_resolution(tmp_path, capsys, resolution):
    out = tmp_path / "audit.json"
    rc = _run("oracle", "--check", "chain", "--trials", 1, "--resolution", resolution,
              "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "resolution" in err
    assert not out.exists()
