"""Public surface: every exported name resolves, removed names stay gone."""

import importlib
import pkgutil

import pytest

import chisigma
from chisigma import cli, io, model, synth

MODULES = ["chisigma"] + [f"chisigma.{m.name}" for m in pkgutil.iter_modules(chisigma.__path__)]
REMOVED = ("GammaParams", "TransformedSampleSet", "NoiseSampleSet")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_types_are_gone(name):
    for module in (chisigma, model):
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
