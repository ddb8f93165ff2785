"""Public surface: every exported name resolves, removed names stay gone."""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import chisigma
from chisigma import cli, identify, io, model, synth

MODULES = ["chisigma"] + [f"chisigma.{m.name}" for m in pkgutil.iter_modules(chisigma.__path__)]
REMOVED = ("GammaParams", "TransformedSampleSet", "NoiseSampleSet",
           "ChiParams", "chi_pdf", "transform", "NoiseField")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_types_are_gone(name):
    for module in (chisigma, model, synth):
        assert not hasattr(module, name)
        assert name not in module.__all__


def test_evaluate_report_resolves_from_cli():
    assert cli.evaluate_report is synth.evaluate_report


def test_volume4d_is_one_class():
    assert io.Volume4D is chisigma.Volume4D is model.Volume4D


def test_stream_names_are_exported():
    assert "VolumeStream" in model.__all__
    assert "simulate_stream" in synth.__all__ and "simulate_stream" in chisigma.__all__
    assert chisigma.simulate_stream is synth.simulate_stream
    assert synth.VolumeStream is model.VolumeStream


@pytest.mark.parametrize("name", ["estimate_sigma", "estimate_n_moments", "estimate_n_mle"])
def test_sample_estimators_live_in_identify(name):
    # They run the moment pass of identify, so model squares no magnitudes.
    assert getattr(chisigma, name) is getattr(identify, name)
    assert name in identify.__all__
    assert not hasattr(model, name) and name not in model.__all__


def test_benchmark_hooks_resolve(monkeypatch):
    # bench/spans.py wraps these names by lookup, and bench/run.py calls
    # identify.estimate_volume(volume, config, threads=1): a name that moves
    # would silently drop the per-layer metrics built on it.
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spans = importlib.import_module("spans")
    missing = [(module, attr) for module, attr, _, _ in spans.HOOKS
               if not hasattr(importlib.import_module(f"chisigma.{module}"), attr)]
    assert missing == []
    inspect.signature(identify.estimate_volume).bind(object(), object(), threads=1)
