"""The model-serving subsystem: artifacts, batch engine, batcher, HTTP.

Pins the three guarantees serving rests on:

* artifact round trips are loss-free (weights/bias/calibration exactly
  preserved, across schema versions — hypothesis-backed);
* the batched behavioural forward pass is bit-identical to the scalar
  path on arbitrary random models (hypothesis-backed), and the batched
  RC supply sweep matches the scalar switch-level engine;
* the HTTP server delivers exactly the engine's answers under bad
  input, hot reloads and concurrency (the micro-batcher itself is
  pinned in ``test_aio_serving.py``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.datasets import make_blobs
from repro.analysis.robustness import (
    accuracy_under_supply,
    pwm_accuracy_under_supply,
)
from repro.circuit import AnalysisError
from repro.core.behavioral import CalibrationModel
from repro.core.network import PwmMlp
from repro.core.perceptron import DifferentialPwmPerceptron
from repro.core.training import PerceptronTrainer
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    AsyncPerceptronServer,
    BatchInferenceEngine,
    ModelStore,
    deserialize_model,
    serialize_model,
)
from repro.serve.artifacts import artifact_hash, upgrade_artifact
from repro.serve.engine import model_n_features

ENGINE = BatchInferenceEngine()

signed_weights = st.lists(st.integers(min_value=-7, max_value=7),
                          min_size=1, max_size=6)
duty = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
coeffs = st.lists(st.floats(min_value=-0.5, max_value=1.5,
                            allow_nan=False, allow_infinity=False),
                  min_size=2, max_size=4)


def _perceptron(weights, bias, pos_cal=None, neg_cal=None):
    p = DifferentialPwmPerceptron(weights, bias=bias)
    if pos_cal is not None:
        p.pos_adder = p.pos_adder.with_calibration(CalibrationModel(pos_cal))
    if neg_cal is not None:
        p.neg_adder = p.neg_adder.with_calibration(CalibrationModel(neg_cal))
    return p


class TestArtifacts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(weights=signed_weights,
           bias=st.integers(min_value=-7, max_value=7),
           pos_cal=st.one_of(st.none(), coeffs),
           neg_cal=st.one_of(st.none(), coeffs))
    def test_perceptron_round_trip_exact(self, weights, bias, pos_cal,
                                         neg_cal):
        p = _perceptron(weights, bias, pos_cal, neg_cal)
        q = deserialize_model(serialize_model(p))
        assert q.weights == p.weights and q.bias == p.bias
        for bank in ("pos_adder", "neg_adder"):
            a = getattr(p, bank)._behavioral.calibration
            b = getattr(q, bank)._behavioral.calibration
            assert (a is None) == (b is None)
            if a is not None:
                assert b.coefficients == a.coefficients  # exact floats

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(weights=signed_weights,
           bias=st.integers(min_value=-7, max_value=7),
           cal=st.one_of(st.none(), coeffs))
    def test_schema_v1_round_trip_exact(self, weights, bias, cal):
        # A v1 document (flat calibration list shared by both banks)
        # must load into the same model as its v2 upgrade.
        p = _perceptron(weights, bias, cal, cal)
        doc = serialize_model(p)
        v1 = json.loads(json.dumps(doc))
        v1["schema"] = 1
        v1["calibration"] = None if cal is None else list(cal)
        v1["hash"] = artifact_hash(v1)
        q = deserialize_model(v1)
        assert q.weights == p.weights and q.bias == p.bias
        for bank in ("pos_adder", "neg_adder"):
            a = getattr(p, bank)._behavioral.calibration
            b = getattr(q, bank)._behavioral.calibration
            assert (a is None) == (b is None)
            if a is not None:
                assert b.coefficients == a.coefficients

    def test_mlp_round_trip_behaviour(self):
        data = make_blobs(n_per_class=15, n_features=2, separation=0.35,
                          spread=0.09, seed=7)
        mlp = PwmMlp(2, 4, seed=2)
        mlp.fit(data.X, data.y, epochs=30)
        again = deserialize_model(serialize_model(mlp))
        assert isinstance(again, PwmMlp)
        assert np.array_equal(ENGINE.predict_mlp(again, data.X),
                              ENGINE.predict_mlp(mlp, data.X))
        assert np.array_equal(ENGINE.hidden_features(again.hidden, data.X),
                              ENGINE.hidden_features(mlp.hidden, data.X))

    def test_calibration_artifact(self):
        cal = CalibrationModel([0.01, 0.9, 0.05])
        again = deserialize_model(serialize_model(cal))
        assert again.coefficients == cal.coefficients

    def test_untrained_mlp_rejected(self):
        with pytest.raises(AnalysisError, match="untrained"):
            serialize_model(PwmMlp(2, 3, seed=0))

    def test_unsupported_schema_rejected(self):
        doc = serialize_model(_perceptron([1, -2], 1))
        doc["schema"] = 99
        with pytest.raises(AnalysisError, match="schema"):
            upgrade_artifact(doc)

    def test_store_save_load_list(self, tmp_path):
        store = ModelStore(tmp_path)
        p = _perceptron([3, -1], -2, [0.0, 1.0])
        path = store.save("demo", p)
        assert path.exists()
        q = store.load("demo")
        assert q.weights == p.weights and q.bias == p.bias
        (meta,) = store.list()
        assert meta["name"] == "demo" and meta["kind"] == "perceptron"
        assert meta["schema"] == ARTIFACT_SCHEMA_VERSION
        assert meta["n_features"] == 2

    def test_store_rejects_tampering(self, tmp_path):
        store = ModelStore(tmp_path)
        path = store.save("demo", _perceptron([3, -1], -2))
        doc = json.loads(path.read_text())
        doc["weights"] = [7, 7]  # forge without restamping
        path.write_text(json.dumps(doc))
        with pytest.raises(AnalysisError, match="hash"):
            store.load("demo")
        # Stripping the stamp must not bypass the check on v2 docs.
        doc.pop("hash")
        path.write_text(json.dumps(doc))
        with pytest.raises(AnalysisError, match="hash"):
            store.load("demo")

    def test_store_rejects_bad_names_and_misses(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(AnalysisError):
            store.load("missing")
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(AnalysisError):
                store.path_for(bad)

    def test_store_overwrite_flag(self, tmp_path):
        store = ModelStore(tmp_path)
        store.save("demo", _perceptron([1], 0))
        with pytest.raises(AnalysisError, match="exists"):
            store.save("demo", _perceptron([2], 0), overwrite=False)


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(weights=signed_weights,
           bias=st.integers(min_value=-7, max_value=7),
           rows=st.integers(min_value=1, max_value=12),
           vdd=st.floats(min_value=0.6, max_value=5.0, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**16),
           pos_cal=st.one_of(st.none(), coeffs))
    def test_batched_forward_bit_identical(self, weights, bias, rows,
                                           vdd, seed, pos_cal):
        p = _perceptron(weights, bias, pos_cal)
        X = np.random.default_rng(seed).uniform(
            0.0, 1.0, (rows, len(weights)))
        margins = np.array([p.decide(x, vdd=vdd).v_out for x in X])
        preds = np.array([p.predict(x, vdd=vdd) for x in X])
        assert np.array_equal(ENGINE.margins(p, X, vdd=vdd), margins)
        assert np.array_equal(ENGINE.predict(p, X, vdd=vdd), preds)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           n_hidden=st.integers(min_value=1, max_value=9),
           rows=st.integers(min_value=1, max_value=8))
    def test_mlp_hidden_bit_identical(self, seed, n_hidden, rows):
        mlp = PwmMlp(3, n_hidden, seed=seed)
        X = np.random.default_rng(seed + 1).uniform(0.0, 1.0, (rows, 3))
        scalar = np.asarray([mlp.hidden.forward(x) for x in X])
        assert np.array_equal(
            ENGINE.hidden_features(mlp.hidden, X), scalar)

    def test_rc_supply_sweep_matches_scalar_engine(self):
        p = _perceptron([3, -2], 1)
        x = [0.7, 0.3]
        vdds = [0.9, 1.4, 2.5, 3.6]
        batched = ENGINE.predict_supply_sweep(p, x, vdds, engine="rc")
        scalar = np.array([p.predict(x, engine="rc", vdd=v)
                           for v in vdds])
        assert np.array_equal(batched, scalar)

    def test_pwm_accuracy_under_supply_matches_scalar(self):
        data = make_blobs(n_per_class=10, n_features=2, separation=0.35,
                          spread=0.09, seed=3)
        p = PerceptronTrainer(2, seed=3).fit(data.X, data.y,
                                             epochs=30).perceptron
        vdds = (0.8, 1.5, 2.5, 4.0)
        for engine in ("behavioral", "rc"):
            batched = pwm_accuracy_under_supply(p, data.X, data.y, vdds,
                                                engine=engine)
            scalar = accuracy_under_supply(
                lambda x, v: p.predict(x, engine=engine, vdd=v),
                data.X, data.y, vdds)
            assert [(b.condition, b.accuracy) for b in batched] == \
                [(s.condition, s.accuracy) for s in scalar]

    def test_per_row_vdd(self):
        p = _perceptron([3, -2], 1)
        X = np.array([[0.7, 0.3], [0.7, 0.3]])
        vdds = np.array([1.0, 3.0])
        batched = ENGINE.margins(p, X, vdd=vdds)
        scalar = [p.decide(X[i], vdd=vdds[i]).v_out for i in range(2)]
        assert np.array_equal(batched, np.array(scalar))

    def test_input_validation(self):
        p = _perceptron([1, -1], 0)
        with pytest.raises(AnalysisError, match="duty"):
            ENGINE.predict(p, [[0.5, 1.5]])
        with pytest.raises(AnalysisError, match="duty matrix"):
            ENGINE.predict(p, [[0.5, 0.5, 0.5]])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(AnalysisError, match="finite"):
                ENGINE.predict(p, [[bad, 0.5]])
        with pytest.raises(AnalysisError, match="cannot serve"):
            ENGINE.predict_model(object(), [[0.5, 0.5]])

    def test_trainer_vectorized_matches_scalar(self):
        data = make_blobs(n_per_class=20, n_features=2, separation=0.3,
                          spread=0.12, seed=9)

        def sampler(s):
            rng = np.random.default_rng(s)
            return lambda: float(rng.uniform(1.2, 3.5))

        for make_kwargs in (lambda: {}, lambda: {"vdd": 1.4},
                            lambda: {"vdd_sampler": sampler(4)}):
            vec = PerceptronTrainer(2, seed=6).fit(
                data.X, data.y, epochs=25, **make_kwargs())
            ref = PerceptronTrainer(2, seed=6).fit(
                data.X, data.y, epochs=25, vectorized=False,
                **make_kwargs())
            assert len(vec.history) == len(ref.history)
            for a, b in zip(vec.history, ref.history):
                assert (a.errors, a.accuracy, a.weights, a.bias) == \
                    (b.errors, b.accuracy, b.weights, b.bias)
            assert vec.converged == ref.converged
            assert vec.perceptron.weights == ref.perceptron.weights
            assert vec.perceptron.bias == ref.perceptron.bias


@pytest.fixture(scope="class")
def serving_stack(request, tmp_path_factory):
    data = make_blobs(n_per_class=20, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=40).perceptron
    store = ModelStore(tmp_path_factory.mktemp("models"))
    store.save("demo", model)
    server = AsyncPerceptronServer(store, port=0, max_batch=16,
                                   max_latency=0.002, workers=0).start()
    request.cls.data = data
    request.cls.model = model
    request.cls.server = server
    yield
    server.close()


@pytest.mark.usefixtures("serving_stack")
class TestHttpServer:
    def _get(self, path):
        try:
            with urllib.request.urlopen(self.server.url + path,
                                        timeout=10) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def _post(self, path, payload):
        request = urllib.request.Request(
            self.server.url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def test_healthz_and_models(self):
        status, body = self._get("/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = self._get("/models")
        assert status == 200
        assert [m["name"] for m in body["models"]] == ["demo"]

    def test_predict_batch_matches_engine(self):
        X = self.data.X
        status, body = self._post("/predict",
                                  {"model": "demo",
                                   "inputs": X.tolist()})
        assert status == 200
        expected = ENGINE.predict(self.model, X)
        assert body["predictions"] == [int(v) for v in expected]
        assert body["count"] == len(X)
        margins = ENGINE.margins(self.model, X)
        assert np.allclose(body["margins"], margins)

    def test_predict_single_row_and_vdd(self):
        status, body = self._post(
            "/predict", {"model": "demo", "inputs": [0.2, 0.8],
                         "vdd": 1.2})
        assert status == 200 and body["count"] == 1
        expected = ENGINE.predict(self.model, [[0.2, 0.8]], vdd=1.2)
        assert body["predictions"] == [int(expected[0])]

    def test_unknown_model_404(self):
        status, body = self._post("/predict", {"model": "nope",
                                               "inputs": [[0.1, 0.2]]})
        assert status == 404 and "error" in body

    def test_malformed_requests_400(self):
        for payload in ({"inputs": [[0.1, 0.2]]},
                        {"model": "demo"},
                        {"model": "demo", "inputs": [[0.1]]},
                        {"model": "demo", "inputs": [[0.1, 2.0]]},
                        {"model": "demo", "inputs": [[float("nan"), 0.2]]},
                        {"model": "demo", "inputs": [[0.1, 0.2]],
                         "vdd": -1.0}):
            status, body = self._post("/predict", payload)
            assert status == 400, payload
            assert "error" in body

    def test_unknown_endpoint_404(self):
        assert self._get("/nope")[0] == 404
        # Unknown paths share one metrics label (bounded cardinality).
        self._get("/another-bogus-path")
        counters = self._get("/metrics")[1]["requests_total"]
        assert "/nope" not in counters and "unknown" in counters

    def test_metrics_counters(self):
        before = self._get("/metrics")[1]
        self._post("/predict", {"model": "demo",
                                "inputs": [[0.4, 0.6]]})
        after = self._get("/metrics")[1]
        assert after["requests_total"]["/predict"] == \
            before["requests_total"].get("/predict", 0) + 1
        assert after["predictions_total"] >= \
            before["predictions_total"] + 1
        assert "demo" in after["batchers"]
        assert after["batchers"]["demo"]["rows"] >= 1


@pytest.mark.usefixtures("serving_stack")
class TestExperimentEndpoints:
    """Experiments join models as a served, self-describing resource."""

    _get = TestHttpServer._get
    _post = TestHttpServer._post

    def test_experiments_index_serves_schemas(self):
        status, body = self._get("/experiments")
        assert status == 200
        assert body["count"] == len(body["experiments"]) >= 22
        by_id = {e["id"]: e for e in body["experiments"]}
        assert "ext_montecarlo" in by_id
        names = [p["name"] for p in by_id["ext_montecarlo"]["params"]]
        assert names == ["fidelity", "seed", "method"]

    def test_single_experiment_schema_and_404(self):
        status, body = self._get("/experiments/fig4")
        assert status == 200 and body["id"] == "fig4"
        assert any(p["name"] == "duties" for p in body["params"])
        status, body = self._get("/experiments/fig99")
        assert status == 404 and "error" in body

    def test_run_returns_rendered_equivalent_result(self):
        from repro.experiments import ExperimentResult, run_experiment

        status, body = self._post("/experiments/table1/run", {})
        assert status == 200
        assert body["experiment_id"] == "table1"
        assert body["config"]["fidelity"] == "fast"
        served = ExperimentResult.from_dict(body["result"])
        direct = run_experiment("table1", fidelity="fast")
        assert served.render() == direct.render()

    def test_run_with_params_and_memoisation(self):
        payload = {"params": {"seed": 21, "method": "vectorized"}}
        status, first = self._post("/experiments/ext_montecarlo/run",
                                   payload)
        assert status == 200 and first["cached"] is False
        assert first["config"]["params"]["seed"] == 21
        status, second = self._post("/experiments/ext_montecarlo/run",
                                    payload)
        assert status == 200 and second["cached"] is True
        assert second["result"] == first["result"]

    def test_run_validation_errors(self):
        cases = [
            ("/experiments/fig99/run", {}, 404),
            ("/experiments/ext_montecarlo/run",
             {"params": {"trials": 10}}, 400),
            ("/experiments/ext_montecarlo/run",
             {"params": {"seed": "x"}}, 400),
            ("/experiments/ext_montecarlo/run",
             {"fidelity": "paper"}, 400),
            ("/experiments/ext_montecarlo/run",
             {"bogus": 1}, 400),
            ("/experiments/ext_montecarlo/run",
             {"params": [1, 2]}, 400),
            # Falsy non-dict params are malformed too, not "defaults".
            ("/experiments/ext_montecarlo/run",
             {"params": 0}, 400),
            ("/experiments/ext_montecarlo/run",
             {"params": ""}, 400),
            # fidelity must ride at the top level, never inside params
            # (a silent drop here would ignore a requested fidelity).
            ("/experiments/ext_montecarlo/run",
             {"params": {"fidelity": "paper"}}, 400),
        ]
        for path, payload, expected in cases:
            status, body = self._post(path, payload)
            assert status == expected, (path, payload, body)
            assert "error" in body

    def test_experiment_memo_is_lru_bounded(self):
        server = self.server
        with server._experiments_lock:
            server._experiment_results.clear()
        original = server.experiment_memo_max
        server.experiment_memo_max = 2
        try:
            for seed in (1, 2, 3):
                self._post("/experiments/ext_sensitivity/run", {})
                self._post("/experiments/ext_montecarlo/run",
                           {"params": {"seed": seed}})
            with server._experiments_lock:
                assert len(server._experiment_results) == 2
        finally:
            server.experiment_memo_max = original

    def test_experiment_metrics_labels(self):
        self._get("/experiments")
        self._post("/experiments/table1/run", {})
        counters = self._get("/metrics")[1]["requests_total"]
        assert counters.get("/experiments", 0) >= 1
        assert counters.get("/experiments/run", 0) >= 1


def _post_predict(server, payload):
    """POST one /predict payload; ``(status, decoded body)``."""
    request = urllib.request.Request(
        server.url + "/predict", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


class TestModelHotReload:
    def test_reexported_artifact_served_without_restart(self, tmp_path):
        store = ModelStore(tmp_path)
        store.save("m", _perceptron([3, 3], -3))
        with AsyncPerceptronServer(store, workers=0) as server:
            payload = {"model": "m", "inputs": [[0.9, 0.9]]}
            assert _post_predict(server, payload)[1]["predictions"] == [1]
            first = server._models["m"]
            # Re-export an inverted model under the same name: /predict
            # must pick it up (and rebuild the batcher) immediately.
            store.save("m", _perceptron([-3, -3], 3))
            assert _post_predict(server, payload)[1]["predictions"] == [0]
            assert server._models["m"] is not first

    def test_nonfinite_vdd_rejected(self, tmp_path):
        store = ModelStore(tmp_path)
        store.save("m", _perceptron([3, 3], -3))
        with AsyncPerceptronServer(store, workers=0) as server:
            for bad in (float("inf"), float("nan"), -1.0):
                status, body = _post_predict(server, {
                    "model": "m", "inputs": [[0.5, 0.5]], "vdd": bad})
                assert status == 400 and "vdd" in body["error"], bad


class TestServingCli:
    def test_export_predict_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        store = str(tmp_path / "store")
        assert cli_main(["export-model", "cli-demo", "--dataset", "blobs",
                         "--epochs", "40", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "exported perceptron model 'cli-demo'" in out
        assert "schema v3" in out
        assert cli_main(["predict", "cli-demo", "--input", "0.9,0.1",
                         "--input", "0.1,0.9", "--store", store]) == 0
        out = capsys.readouterr().out
        assert out.count("-> class") == 2

    def test_export_mlp(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        store = str(tmp_path / "store")
        assert cli_main(["export-model", "xor-demo", "--dataset", "xor",
                         "--hidden", "4", "--epochs", "20",
                         "--seed", "3", "--store", store]) == 0
        assert "exported mlp model" in capsys.readouterr().out
        assert cli_main(["predict", "xor-demo", "--input", "0.5,0.5",
                         "--store", store]) == 0
        assert "-> class" in capsys.readouterr().out

    def test_predict_input_validation(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        store = str(tmp_path / "store")
        assert cli_main(["export-model", "m", "--epochs", "5",
                         "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["predict", "m", "--input", "0.5",
                         "--store", store]) == 2
        assert "expects 2" in capsys.readouterr().err
        assert cli_main(["predict", "m", "--input", "a,b",
                         "--store", store]) == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_serve_banner_prints_bound_port(self, tmp_path):
        # `serve --port 0` must announce the port it actually bound.
        repo = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "0", "--store", str(tmp_path)],
            cwd=repo, env=env, stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stderr.readline()
            assert banner.startswith("serving http://127.0.0.1:"), banner
            url = banner.split()[1]
            assert not url.endswith(":0")
            with urllib.request.urlopen(url + "/healthz",
                                        timeout=30) as r:
                assert json.loads(r.read())["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
