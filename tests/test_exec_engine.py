"""Equivalence and cache tests for the execution engine.

The contract under test: the batched Monte-Carlo and yield campaigns
reproduce the per-trial loops they replaced — recorded in
``tests/fixtures/rc_loop_reference.json`` — to float-reassociation
tolerance (same RNG draws), and cache hits replay results
byte-identically.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import adder_monte_carlo, make_blobs, perceptron_yield
from repro.core import AdderConfig, WeightedAdder
from repro.core.rc_model import RcBatchSolver, RcSwitchSolver, RcLeg
from repro.core.training import PerceptronTrainer
from repro.exec import ResultCache
from repro.exec.batch import (
    batch_adder_values,
    leg_resistance_arrays,
    sample_adder_mismatch,
)
from repro.experiments import RunConfig, run_config
from repro.tech.corners import MonteCarloSampler

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads(
    (REPO_ROOT / "tests" / "fixtures" / "rc_loop_reference.json").read_text())


def _unhex(values):
    return np.array([float.fromhex(v) for v in values])


class TestMonteCarloEquivalence:
    def test_loop_vs_vectorized_same_draws(self):
        ref = REFERENCE["monte_carlo"]
        adder = WeightedAdder(AdderConfig())
        vec = adder_monte_carlo(adder, ref["duties"], ref["weights"],
                                n_trials=ref["n_trials"], seed=ref["seed"])
        np.testing.assert_allclose(vec.errors, _unhex(ref["errors"]),
                                   rtol=1e-9, atol=1e-15)


class TestYieldEquivalence:
    @pytest.fixture
    def setup(self):
        data = make_blobs(n_per_class=8, n_features=2, separation=0.35,
                          spread=0.09, seed=13)
        trained = PerceptronTrainer(2, seed=13).fit(data.X, data.y,
                                                    epochs=40)
        return trained.perceptron, data

    @staticmethod
    def _sampler(seed):
        rng = np.random.default_rng(seed)
        return lambda: float(rng.uniform(1.2, 3.5))

    def _yield(self, pwm, data, ref):
        return perceptron_yield(pwm, data, n_parts=ref["n_parts"],
                                seed=ref["seed"],
                                vdd_sampler=self._sampler(ref["seed"]))

    def test_loop_vs_vectorized_identical_records(self, setup):
        pwm, data = setup
        ref = REFERENCE["yield"]
        vec = self._yield(pwm, data, ref)
        assert list(vec.accuracies) == ref["accuracies"]
        assert vec.yield_fraction == ref["yield_fraction"]

    @pytest.mark.parametrize("prior_state", [False, True])
    def test_hysteresis_matches_per_part_loop(self, setup, prior_state):
        # Each part's comparator starts low, whatever state the
        # perceptron's comparator is in, and that state is left alone.
        pwm, data = setup
        ref = REFERENCE["yield_hysteresis"]
        pwm.comparator.hysteresis = ref["hysteresis"]
        pwm.comparator._state = prior_state
        result = self._yield(pwm, data, ref)
        assert list(result.accuracies) == ref["accuracies"]
        assert pwm.comparator._state is prior_state


class TestBatchSolver:
    def test_batch_matches_recorded_solver(self):
        ref = REFERENCE["rc_batch"]
        sol = RcBatchSolver(ref["duty"], ref["phase"],
                            [_unhex(row) for row in ref["r_up"]],
                            [_unhex(row) for row in ref["r_down"]],
                            v_up=ref["v_up"], cout=ref["cout"],
                            period=ref["period"]).solve()
        for name in ("average_voltage", "ripple", "supply_power"):
            got = [float.hex(float(v)) for v in getattr(sol, name)()]
            assert got == ref[name], name

    def test_point_is_batch_size_invariant(self):
        ref = REFERENCE["rc_batch"]
        r_up = [_unhex(row) for row in ref["r_up"]]
        r_down = [_unhex(row) for row in ref["r_down"]]
        batch = RcBatchSolver(ref["duty"], ref["phase"], r_up, r_down,
                              v_up=ref["v_up"], cout=ref["cout"],
                              period=ref["period"]).solve()
        for b, v_up in enumerate(ref["v_up"]):
            one = RcBatchSolver(ref["duty"], ref["phase"], [r_up[b]],
                                [r_down[b]], v_up=v_up, cout=ref["cout"],
                                period=ref["period"]).solve().point(0)
            point = batch.point(b)
            for name in ("average_voltage", "ripple", "supply_power",
                         "settling_time_constant"):
                assert getattr(point, name)() == getattr(one, name)()
                assert isinstance(getattr(point, name)(), float)

    def test_batch_matches_scalar_solver(self):
        legs = [RcLeg(r_up=1e3 * (i + 1), r_down=2e3 * (i + 1),
                      duty=d, phase=p, v_up=2.5)
                for i, (d, p) in enumerate([(0.3, 0.0), (0.6, 0.25),
                                            (1.0, 0.0), (0.0, 0.0)])]
        scalar = RcSwitchSolver(legs, cout=10e-12, period=2e-9,
                                vdd=2.5).solve()
        batch = RcBatchSolver(
            duty=[l.duty for l in legs], phase=[l.phase for l in legs],
            r_up=[[l.r_up for l in legs]], r_down=[[l.r_down for l in legs]],
            v_up=2.5, cout=10e-12, period=2e-9).solve()
        np.testing.assert_allclose(batch.average_voltage(),
                                   [scalar.average_voltage()], rtol=1e-12)
        np.testing.assert_allclose(batch.ripple(), [scalar.ripple()],
                                   rtol=1e-9)
        np.testing.assert_allclose(batch.supply_power(),
                                   [scalar.supply_power()], rtol=1e-12)

    def test_batch_adder_matches_evaluate(self):
        cfg = AdderConfig()
        adder = WeightedAdder(cfg)
        duties, weights = [0.4, 0.8, 0.1], [7, 2, 5]
        scalar = adder.evaluate(duties, weights, engine="rc")
        r_up, r_down = leg_resistance_arrays(cfg, None, cfg.vdd, batch=3)
        values = batch_adder_values(cfg, duties, weights, r_up, r_down,
                                    cfg.vdd)
        np.testing.assert_allclose(values.value,
                                   [scalar.value] * 3, rtol=1e-12)
        np.testing.assert_allclose(values.power,
                                   [scalar.power] * 3, rtol=1e-12)

    def test_sample_batch_matches_sequential_draws(self):
        cfg = AdderConfig()
        batch_sampler = MonteCarloSampler(seed=9)
        seq_sampler = MonteCarloSampler(seed=9)
        mismatch, = sample_adder_mismatch(batch_sampler, cfg, n_trials=2)
        for trial in range(2):
            for i in range(cfg.n_inputs):
                for b in range(cfg.n_bits):
                    design = cfg.cell.scaled(float(1 << b))
                    flat = i * cfg.n_bits + b
                    nm = seq_sampler.sample(design.wn, design.length)
                    pm = seq_sampler.sample(design.wp, design.length)
                    assert mismatch.delta_vt_n[trial, flat] == nm.delta_vt
                    assert mismatch.kp_scale_n[trial, flat] == nm.kp_scale
                    assert mismatch.delta_vt_p[trial, flat] == pm.delta_vt
                    assert mismatch.kp_scale_p[trial, flat] == pm.kp_scale


class TestResultCache:
    def test_miss_then_hit_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("table1", "fast")
        assert cache.get_config(config) is None
        result = run_config(config)
        cache.put_config(result, config)
        hit = cache.get_config(config)
        assert hit is not None
        assert hit.render(charts=True) == result.render(charts=True)
        # Byte-identical on the second hit too (stable deserialisation).
        assert cache.get_config(config).render() == result.render()

    def test_run_experiment_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("ext_transistor_count", "fast")
        first = run_config(config, cache=cache)
        # Entries are written under the canonical RunConfig key.
        assert cache.counts()["by_experiment"] == \
            {"ext_transistor_count": 1}
        assert cache.get_config(config) is not None
        # A second run returns the cached copy.
        second = run_config(config, cache=cache)
        assert second.render() == first.render()

    def test_params_change_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.path_for_config(
            RunConfig.build("ext_montecarlo", "fast", {"seed": 1}))
        b = cache.path_for_config(
            RunConfig.build("ext_montecarlo", "fast", {"seed": 2}))
        c = cache.path_for_config(
            RunConfig.build("ext_montecarlo", "paper", {"seed": 1}))
        assert len({a, b, c}) == 3
        assert cache.path_for_config(
            RunConfig.build("ext_montecarlo", "fast",
                            {"seed": 1, "method": "auto"})) == \
            cache.path_for_config(
                RunConfig.build("ext_montecarlo", "fast",
                                {"method": "auto", "seed": 1}))

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("table1", "fast")
        entry = cache.put_config(run_config(config), config)
        payload = json.loads(cache._payload_text(entry))
        payload["schema"] = -1
        with cache._lock:
            cache._conn.execute(
                "UPDATE results SET payload = ? WHERE entry = ?",
                (json.dumps(payload), entry))
        assert cache.get_config(config) is None

    def test_legacy_miss_without_params_stays_a_miss(self, tmp_path):
        # A pre-RunConfig kwargs-keyed entry, as older builds wrote it.
        legacy = tmp_path / "flat" / "ext_transistor_count" / \
            "fast-0123456789abcdef.json"
        legacy.parent.mkdir(parents=True)
        config = RunConfig.build("ext_transistor_count", "fast")
        legacy.write_text(json.dumps({
            "schema": 1, "params": {"phantom": "1"},
            "result": run_config(config).to_dict()}))
        cache = ResultCache(tmp_path)
        cache.import_flat_cache(tmp_path / "flat")
        assert cache.get_config(config) is None
        # The miss neither promotes nor rewrites the legacy row.
        assert cache.counts()["by_kind"] == {"legacy": 1}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("table1", "fast")
        cache.put_config(run_config(config), config)
        assert cache.clear() == 1
        assert cache.get_config(config) is None


    def test_cache_import_stays_lean(self, tmp_path):
        # The experiment path (perfbench's experiments_fast included)
        # must not pay for the dashboard or the asyncio HTTP core.
        script = (
            "import sys\n"
            "import repro.experiments\n"
            "from repro.exec.cache import ResultCache\n"
            f"ResultCache({str(tmp_path)!r})\n"
            "print(sorted(m for m in ('repro.store', 'asyncio')\n"
            "             if m in sys.modules))\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


LAZY_PACKAGES = ["repro.serve", "repro.circuit", "repro.core", "repro.exec"]


class TestScipyLoadsOnFirstUse:
    """scipy and the server stack are off the numerics' path.

    The transistor kernel runs on numpy alone, so no experiment loads
    scipy: only a sparse factorisation does (``scipy.sparse``, on first
    use; ``tests/test_sparse_mna.py`` runs it).  ``repro.serve`` loads
    its asyncio/HTTP modules on first access, so training and the
    experiments, which import ``repro.serve.engine``, load neither
    asyncio nor ``repro.serve.aio_server``."""

    @staticmethod
    def _modules_after(script):
        """Modules of scipy, asyncio and the HTTP core loaded by
        ``script`` in a fresh interpreter."""
        script += (
            "import json, sys\n"
            "print(json.dumps(sorted(\n"
            "    m for m in sys.modules\n"
            "    if m.split('.')[0] in ('scipy', 'asyncio')\n"
            "    or m == 'repro.serve.aio_server')))\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_serving_a_behavioural_model_never_loads_scipy(self):
        loaded = self._modules_after(
            "import repro.experiments\n"
            "import repro.serve.aio_server\n"
            "from repro.analysis import make_blobs\n"
            "from repro.core.training import PerceptronTrainer\n"
            "from repro.serve.engine import BatchInferenceEngine\n"
            "data = make_blobs(n_per_class=10, n_features=2, seed=7)\n"
            "model = PerceptronTrainer(2, seed=7).fit(\n"
            "    data.X, data.y, epochs=10).perceptron\n"
            "BatchInferenceEngine().model_margins(model, data.X)\n")
        assert [m for m in loaded if m.startswith("scipy")] == []

    def test_transistor_experiment_loads_no_scipy(self):
        loaded = self._modules_after(
            "from repro.experiments import RunConfig, run_config\n"
            "run_config(RunConfig.build('fig4', 'fast'))\n")
        assert [m for m in loaded if m.startswith("scipy")] == []

    def test_training_and_experiments_skip_the_server_stack(self):
        loaded = self._modules_after(
            "from repro.analysis import make_blobs\n"
            "from repro.core.training import PerceptronTrainer\n"
            "from repro.experiments import RunConfig, run_config\n"
            "data = make_blobs(n_per_class=10, n_features=2, seed=7)\n"
            "PerceptronTrainer(2, seed=7).fit(data.X, data.y, epochs=10)\n"
            "run_config(RunConfig.build('ext_robustness', 'fast'))\n")
        assert loaded == []

    def test_no_fast_experiment_loads_scipy_or_asyncio(self):
        loaded = self._modules_after(
            "from repro.experiments import REGISTRY, RunConfig, "
            "run_config\n"
            "for eid in REGISTRY:\n"
            "    run_config(RunConfig.build(eid, 'fast'))\n")
        assert loaded == []

    # repro.serve, repro.circuit, repro.core and repro.exec resolve
    # their exported names on first access.
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_serve_name_imports_from_the_package(self, package):
        import importlib

        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            namespace = {}
            exec(f"from {package} import {name}", namespace)
            assert namespace[name] is getattr(pkg, name), name
        for name, module in pkg._LAZY.items():
            home = importlib.import_module(f"{package}.{module}")
            assert getattr(home, name) is getattr(pkg, name), name
        with pytest.raises(ImportError):
            exec(f"from {package} import NoSuchName", {})
        with pytest.raises(AttributeError, match="NoSuchName"):
            getattr(pkg, "NoSuchName")

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_lists_every_export_before_it_loads(self, package):
        # In a fresh interpreter nothing has been resolved yet, so dir()
        # can only know the exports from the package's table.
        script = (
            "import json\n"
            f"import {package} as pkg\n"
            "print(json.dumps([sorted(pkg.__all__), dir(pkg)]))\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        exports, listed = json.loads(done.stdout)
        assert set(exports) <= set(listed)
        assert listed == sorted(listed)

    def test_transient_stays_the_function_after_its_submodule_loads(self):
        # repro.circuit.transient is a submodule and the function it
        # exports; loading the submodule first must not rebind the
        # package name to the module.
        script = (
            "import types\n"
            "import repro.circuit.transient\n"
            "from repro.circuit import transient\n"
            "import repro.circuit as pkg\n"
            "home = __import__('sys').modules['repro.circuit.transient']\n"
            "assert isinstance(home, types.ModuleType)\n"
            "assert transient is home.transient, transient\n"
            "assert pkg.transient is home.transient, pkg.transient\n"
            "print('ok')\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


class TestServeStartsWithoutTheSimulator:
    """``python -m repro serve`` answers a behavioural ``/predict``
    without loading the experiments, the engine registry, the MNA/PSS
    stepper or the result cache; the describing endpoints load what
    they need on first use."""

    #: Modules (and their submodules) the serve path must not load
    #: before its first behavioural /predict is answered.
    NOT_LOADED = ("repro.experiments", "repro.engines",
                  "repro.circuit.batch_transient", "repro.circuit.mna",
                  "repro.circuit.pss", "repro.exec.cache", "sqlite3")

    @staticmethod
    def _run(script, store):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
               "STORE": str(store)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @staticmethod
    def _store(root):
        from repro.serve import ModelStore

        data = make_blobs(n_per_class=10, n_features=2, seed=7)
        model = PerceptronTrainer(2, seed=7).fit(
            data.X, data.y, epochs=10).perceptron
        ModelStore(root).save("demo", model)
        return root

    def test_cli_serve_answers_predict_without_the_simulator(self,
                                                             tmp_path):
        script = (
            "import http.client, json, os, socket, sys, threading, time\n"
            "from repro.__main__ import main\n"
            "with socket.socket() as sock:\n"
            "    sock.bind(('127.0.0.1', 0))\n"
            "    port = sock.getsockname()[1]\n"
            "threading.Thread(target=main, daemon=True, args=(\n"
            "    ['serve', '--port', str(port), '--store',\n"
            "     os.environ['STORE']],)).start()\n"
            "def call(method, path, body=None):\n"
            "    conn = http.client.HTTPConnection('127.0.0.1', port,\n"
            "                                      timeout=10)\n"
            "    conn.request(method, path, body=body)\n"
            "    response = conn.getresponse()\n"
            "    return response.status, response.read().decode()\n"
            "body = json.dumps({'model': 'demo', 'inputs': [[0.3, 0.7]]})\n"
            "for _ in range(2000):\n"
            "    try:\n"
            "        status, _ = call('POST', '/predict', body)\n"
            "        break\n"
            "    except OSError:\n"
            "        time.sleep(0.005)\n"
            f"boundary = {self.NOT_LOADED!r}\n"
            "loaded = sorted(m for m in sys.modules for b in boundary\n"
            "                if m == b or m.startswith(b + '.'))\n"
            "print(json.dumps([status, loaded, call('GET', '/engines')]))\n")
        status, loaded, engines = self._run(script, self._store(tmp_path))
        assert status == 200
        assert loaded == []
        wire = json.loads((REPO_ROOT / "tests" / "fixtures"
                           / "serve_wire.json").read_text())
        pinned = next(ex for ex in wire["exchanges"]
                      if ex["path"] == "/engines")
        assert engines == [pinned["status"], pinned["body"]]

    def test_first_slow_engine_request_imports_off_the_loop(self, tmp_path):
        # The first rc /predict imports the engine registry; that import
        # runs on an executor thread, not on the event loop.
        script = (
            "import http.client, json, os, sys, threading\n"
            "importers = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'repro.engines':\n"
            "            importers.append(threading.current_thread().name)\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from repro.serve import AsyncPerceptronServer, ModelStore\n"
            "store = ModelStore(os.environ['STORE'])\n"
            "with AsyncPerceptronServer(store, workers=0) as server:\n"
            "    loop_thread = server._thread.name\n"
            "    conn = http.client.HTTPConnection(server.host, server.port,\n"
            "                                      timeout=60)\n"
            "    conn.request('POST', '/predict', json.dumps(\n"
            "        {'model': 'demo', 'inputs': [[0.3, 0.7]],\n"
            "         'engine': 'rc'}))\n"
            "    status = conn.getresponse().status\n"
            "print(json.dumps([status, importers, loop_thread]))\n")
        status, importers, loop_thread = self._run(
            script, self._store(tmp_path))
        assert status == 200
        assert len(importers) == 1 and importers != [loop_thread]


class TestCliFlags:
    def test_no_cache_flag_accepted(self, capsys, tmp_path):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "table1", "--no-cache"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_cache_dir_flag_populates_cache(self, capsys, tmp_path):
        from repro.__main__ import main as cli_main
        cache_dir = tmp_path / "cache"
        assert cli_main(["run", "table1", "--cache-dir",
                         str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert ResultCache(cache_dir).counts()["by_experiment"] == \
            {"table1": 1}
        assert cli_main(["run", "table1", "--cache-dir",
                         str(cache_dir)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", [["run", "table1"], ["all"]])
    def test_corrupt_cache_file_is_an_error_line(self, command, capsys,
                                                 tmp_path):
        from repro.__main__ import main as cli_main
        db = tmp_path / "store.sqlite"
        db.write_bytes(b"definitely not a sqlite database" * 64)
        assert cli_main([*command, "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(db) in err
