#!/usr/bin/env python3
"""From trained perceptron to HTTP endpoint: the full serving pipeline.

The paper's perceptron is pitched as the building block of always-on
edge AI — which means someone eventually has to *deploy* one.  This
example walks the whole path the ``repro.serve`` subsystem provides:

1. train a differential PWM perceptron on the blobs dataset;
2. export it as a versioned, hash-stamped JSON artifact in a
   :class:`~repro.serve.artifacts.ModelStore`;
3. start the micro-batching HTTP server on a free port;
4. query ``/predict`` over HTTP (a whole batch in one request) and
   check the answers against the in-process batch inference engine;
5. read back the server's ``/metrics`` counters;
6. discover the experiment registry over ``GET /experiments``, read
   one experiment's parameter schema from ``GET /experiments/<id>``
   and print the ``python -m repro run`` command that runs it (the
   server describes experiments; the CLI runs them into the result
   cache).

Run:  python examples/serving_pipeline.py
"""

import json
import tempfile
import urllib.request

from repro.analysis import make_blobs
from repro.core.training import PerceptronTrainer
from repro.serve import AsyncPerceptronServer, BatchInferenceEngine, ModelStore


def http_json(url: str, payload=None):
    """POST (or GET when payload is None) and decode the JSON body."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def main() -> None:
    print("1. training a differential PWM perceptron on blobs...")
    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    trainer = PerceptronTrainer(2, seed=7)
    model = trainer.fit(data.X, data.y, epochs=60).perceptron
    accuracy = trainer.evaluate(model, data.X, data.y)
    print(f"   training accuracy {accuracy:.2f}, weights {model.weights}, "
          f"bias {model.bias}")

    with tempfile.TemporaryDirectory() as root:
        print("2. exporting to the model store...")
        store = ModelStore(root)
        path = store.save("blobs-demo", model)
        doc = store.load_doc("blobs-demo")
        print(f"   artifact {path.name}: schema v{doc['schema']}, "
              f"hash {doc['hash']} — OK")

        print("3. starting the micro-batching server on a free port...")
        with AsyncPerceptronServer(store, max_batch=32,
                                   workers=0) as server:
            print(f"   listening at {server.url} — OK")

            print("4. POSTing the whole dataset to /predict...")
            status, body = http_json(server.url + "/predict", {
                "model": "blobs-demo",
                "inputs": data.X.tolist(),
            })
            assert status == 200, status
            expected = BatchInferenceEngine().predict(model, data.X)
            served = body["predictions"]
            agree = sum(int(a == b) for a, b in zip(served, expected))
            print(f"   HTTP {status}: {body['count']} predictions, "
                  f"{agree}/{len(expected)} match the in-process "
                  "engine — OK")
            hits = sum(int(p == label)
                       for p, label in zip(served, data.y))
            print(f"   served accuracy {hits / len(data.y):.2f} — OK")

            # Power elasticity over HTTP: same rows, drooping supply.
            status, body = http_json(server.url + "/predict", {
                "model": "blobs-demo",
                "inputs": data.X[:8].tolist(),
                "vdd": 1.2,
            })
            print(f"   at Vdd=1.2V the same rows classify as "
                  f"{body['predictions']} — OK")

            print("5. reading /metrics...")
            status, metrics = http_json(server.url + "/metrics")
            batcher = metrics["batchers"]["blobs-demo"]
            print(f"   {metrics['requests_total']['/predict']} predict "
                  f"requests, {metrics['predictions_total']} rows, "
                  f"mean batch {batcher['mean_batch_rows']} rows, "
                  f"mean latency {metrics['latency_ms_mean']} ms")

            print("6. experiments as a described resource...")
            status, schemas = http_json(server.url + "/experiments")
            print(f"   {schemas['count']} experiments discoverable "
                  "over GET /experiments — OK")
            status, spec = http_json(
                server.url + "/experiments/ext_montecarlo")
            assert status == 200 and spec["id"] == "ext_montecarlo", spec
            params = ", ".join(p["name"] for p in spec["params"])
            print(f"   GET /experiments/ext_montecarlo: {spec['title']} "
                  f"(params: {params}) — OK")
            print("   run it with: python -m repro run ext_montecarlo "
                  "--seed 21 --method vectorized")
    print("serving pipeline complete")


if __name__ == "__main__":
    main()
