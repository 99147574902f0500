"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from mtlid import model as model_mod  # noqa: E402
from mtlid.encoder import EncoderConfig  # noqa: E402
from mtlid.preprocess import build_vocab, encode  # noqa: E402
from mtlid.tensor import Tensor, sum_all  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str) -> harness.Workload:
    """The workload with about a third of its examples per province."""
    workload = harness.WORKLOADS[name]
    spec = workload.corpus
    corpus = dataclasses.replace(
        spec,
        train_per_province=spec.train_per_province // 3,
        dev_per_province=spec.dev_per_province // 3,
        serve_per_province=spec.serve_per_province // 3,
    )
    return dataclasses.replace(workload, corpus=corpus)


def _wrappers() -> list[str]:
    """Names of every traced wrapper still installed in a package namespace."""
    found = []
    for short in tracer_mod.NAMESPACES:
        module = tracer_mod._module(short)
        for attr, value in vars(module).items():
            if getattr(value, tracer_mod.TRACE_MARK, False):
                found.append(f"{short}.{attr}")
    for (short, cls_name, method), _ in tracer_mod.METHODS.items():
        cls = getattr(tracer_mod._module(short), cls_name)
        if getattr(cls.__dict__[method], tracer_mod.TRACE_MARK, False):
            found.append(f"{cls_name}.{method}")
    return found


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_run_of_every_workload_passes_its_checks(name, tmp_path):
    run = harness.Run(_tiny(name), seed=3, work=tmp_path)
    values, details = harness.measure(run, harness.FIXED_PLAN)
    assert run.failures == []
    assert set(values) == set(harness.END_TO_END_UNITS)
    assert all(np.isfinite(v) and v > 0 for v in values.values()), values
    assert details["turns"]["serve"] == 1 and details["latency_samples"] == len(run.serve_rows)
    assert run.attempted > len(run.serve_rows)


def _tiny_model():
    texts = ["alpha beta gamma", "beta delta", "gamma alpha epsilon zeta"]
    vocab = build_vocab(texts)
    enc = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, l_max=6, vocab_size=len(vocab))
    config = model_mod.ModelConfig(encoder=enc, n_countries=2, n_provinces=3)
    seqs = [encode(t, vocab, enc.l_max) for t in texts]
    return model_mod.MtlModel(config, global_seed=0), seqs


def test_vjp_time_is_charged_to_the_layer_that_built_the_node():
    from mtlid import encoder

    model, seqs = _tiny_model()
    with tracer_mod.Tracer() as tr:
        x = encoder.embed(seqs, model.params)
        sum_all(x).backward()
    assert dict(tr.bwd_by_layer) == pytest.approx(
        {"encoder.embed": tr.total["tensor.vjp.embedding"] + tr.total["tensor.vjp.add"]}
    )
    assert tr.calls["tensor.vjp.embedding"] == tr.calls["tensor.vjp.add"] == 1

    model, seqs = _tiny_model()
    start = perf_counter()
    with tracer_mod.Tracer() as tr:
        logits_c, logits_p = model.forward(seqs, train_mode=True, rng=np.random.default_rng(0))
        total, _ = model_mod.compute_loss(logits_c, logits_p, np.array([0, 1, 0]), np.array([2, 1, 0]), model.config)
        total.backward()
    wall = perf_counter() - start
    vjp_total = sum(s for name, s in tr.total.items() if name.startswith("tensor.vjp."))
    assert set(tr.bwd_by_layer) == set(tracer_mod.LAYERS)
    assert sum(tr.bwd_by_layer.values()) == pytest.approx(vjp_total)
    assert tr.bwd_by_layer["model.compute_loss"] >= tr.total["tensor.vjp.cross_entropy_from_logits"]
    assert tr.calls["tensor.vjp.cross_entropy_from_logits"] == 2
    assert tr.calls["attnpool.task_attention"] == 2
    assert sum(tr.self_time.values()) <= wall
    assert tr.self_time["tensor.backward"] == pytest.approx(tr.total["tensor.backward"] - vjp_total)


def test_untraced_run_installs_no_wrapper_and_traced_run_reports_overhead(tmp_path, monkeypatch):
    originals = {a: getattr(model_mod, a) for a in ("compute_loss", "load_checkpoint")}
    backward = Tensor.__dict__["backward"]
    run = harness.Run(_tiny("train-short-mtl"), seed=5, work=tmp_path)
    seen = []
    real_measure = harness.measure

    def spy(*args, **kwargs):
        seen.append(_wrappers())
        return real_measure(*args, **kwargs)

    monkeypatch.setattr(harness, "measure", spy)
    e2e = harness.run_workload(run, seconds=0.0, trace=False)
    assert seen == [[]]
    assert _wrappers() == []
    layers = harness.run_workload(run, seconds=0.0, trace=True)
    assert seen[1] == []  # the untraced pass of the traced run
    # the traced pass wraps a name in every namespace that binds it
    assert {"tensor.add", "encoder.add", "model.add", "Tensor.backward"} <= set(seen[2])
    assert _wrappers() == []
    assert Tensor.__dict__["backward"] is backward
    assert all(getattr(model_mod, a) is f for a, f in originals.items())
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert np.isfinite(layers["trace.overhead_frac"][0])
    assert run.details["span_self_s"] <= run.details["traced_wall_s"]
    assert run.failures == []


def test_command_prints_result_last_and_fails_without_sources(tmp_path, monkeypatch, capsys):
    import run as run_mod

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the in-process run sets them
    monkeypatch.setattr(harness, "WORKLOADS", {"train-short-mtl": _tiny("train-short-mtl")})
    argv = ["--workload", "train-short-mtl", "--seed", "2", "--seconds", "1", "--trace", "0"]
    assert run_mod.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(lines[-2])
    assert record["seed"] == 2 and record["machine"]["blas_threads"] >= 1

    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=bare, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
