"""Tests for the top-level public API surface."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_pyproject_declares_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["name"] == "repro"
        assert project["version"] == repro.__version__
        assert project["dependencies"] == ["numpy"]

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_main_classes_exposed(self):
        assert repro.GRR and repro.OLH and repro.SubsetSelection
        assert repro.SUE and repro.OUE
        assert repro.SPL and repro.SMP and repro.RSFD and repro.RSRFD

    def test_make_protocol_shortcut(self):
        oracle = repro.make_protocol("OUE", k=5, epsilon=1.0, rng=0)
        assert oracle.name == "OUE"


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.protocols",
            "repro.multidim",
            "repro.attacks",
            "repro.privacy",
            "repro.ml",
            "repro.datasets",
            "repro.metrics",
            "repro.experiments",
        ],
    )
    def test_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        assert hasattr(imported, "__all__")
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"


class TestNoOraclesInThePackage:
    def test_no_reference_modules(self):
        # test oracles live under tests/, never inside the installed package
        names = [
            module.name
            for module in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        assert "repro.ml.tree" in names
        assert [name for name in names if name.endswith("_reference")] == []

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.ml", "RecursiveBinaryFeatureRegressionTree"),
            ("repro.attacks", "ReferenceReidentificationAttack"),
        ],
    )
    def test_oracle_classes_not_exported(self, module, name):
        assert not hasattr(importlib.import_module(module), name)
