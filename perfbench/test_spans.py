"""Tests of the benchmark's span recorder.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
from pathlib import Path
from types import ModuleType

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cohdist  # noqa: E402
import cohdist.cli  # noqa: E402,F401
from cohdist import harness, qcore, tomography  # noqa: E402

from layers import layer_metrics, wrap_layers  # noqa: E402
from spans import Recorder, self_times_ns  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    # span 0: root [0, 100]
    #   span 1 [10, 30] and span 2 [20, 40] overlap: together they cover [10, 40]
    #     span 3 [12, 18] inside span 1
    #   span 4 [90, 120] runs past the root's end: only [90, 100] counts
    # span 5: a second root [200, 210] with no children
    start = np.array([0, 10, 20, 12, 90, 200])
    end = np.array([100, 30, 40, 18, 120, 210])
    parent = np.array([-1, 0, 0, 1, 0, -1])
    got = self_times_ns(start, end, parent)
    want = [100 - 30 - 10, 20 - 6, 20, 6, 30, 10]
    assert got.tolist() == want


def _cohdist_namespaces() -> dict[str, dict]:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if isinstance(mod, ModuleType) and (name == "cohdist" or name.startswith("cohdist."))
    }


def test_wrap_rebinds_every_importer_and_unwrap_restores_identity():
    before = _cohdist_namespaces()
    original = tomography.simulate_counts
    recorder = Recorder()
    wrap_layers(recorder)
    try:
        # names imported with `from .tomography import ...` are rebound too
        assert tomography.simulate_counts is not original
        assert harness.simulate_counts is tomography.simulate_counts
        assert cohdist.simulate_counts is tomography.simulate_counts
        assert harness.rel_entropy_coherence is cohdist.coherence.rel_entropy_coherence
        assert cohdist.protocol.rel_entropy_coherence is cohdist.coherence.rel_entropy_coherence
        config = harness.RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=100, seed=1)
        harness.run_experiment(config)
    finally:
        recorder.unwrap()
    after = _cohdist_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key}"

    metrics = layer_metrics(recorder)
    assert metrics["harness.run_experiment.calls"][0] == 1
    # one tomography of Bob's marginal and one per measurement outcome
    assert metrics["tomography.simulate_counts.calls"][0] == 3
    assert metrics["tomography.binomial_draw.calls"][0] == 9
    assert metrics["tomography.reconstruct_mle.calls"][0] == 3
    names = [recorder.names[i] for i in recorder.name_id]
    parents = list(recorder.parent)
    for i, name in enumerate(names):
        if name == "tomography.binomial_draw":
            assert names[parents[i]] == "tomography.simulate_counts"
        if name == "harness.run_experiment":
            assert parents[i] == -1
    # a run_experiment span's self time excludes its children
    root = names.index("harness.run_experiment")
    assert recorder.self_times_ns()[root] < recorder.end[root] - recorder.start[root]


def test_unwrapped_calls_record_nothing():
    recorder = Recorder()
    wrap_layers(recorder)
    recorder.unwrap()
    qcore.ensure_density(np.eye(2) / 2.0)
    assert len(recorder) == 0
