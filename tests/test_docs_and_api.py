"""Repository-level checks: public API surface, layering, docs, doctests."""

import ast
import doctest
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_MODULES = [
    "repro",
    "repro.addresses",
    "repro.analysis",
    "repro.bat",
    "repro.core",
    "repro.dataset",
    "repro.errors",
    "repro.exec",
    "repro.experiments",
    "repro.geo",
    "repro.isp",
    "repro.net",
    "repro.seeding",
    "repro.world",
]

DOCTEST_MODULES = [
    "repro.seeding",
    "repro.exec.cache",
    "repro.exec.remote",
    "repro.addresses.normalize",
    "repro.addresses.model",
    "repro.core.matching",
    "repro.core.parsing",
    "repro.net.http",
    "repro.net.cookies",
    "repro.net.clock",
    "repro.isp.plans",
    "repro.analysis.stats",
]

# Packages that resolve their re-exports on first access (PEP 562).
LAZY_PACKAGES = ["repro", "repro.exec", "repro.net"]


class TestPublicApi:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_importable_with_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} needs a module docstring"

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists {symbol}"

    def test_version(self):
        import repro

        assert repro.__version__

    def test_top_level_quickstart_names(self):
        import repro

        for name in ("build_world", "WorldConfig", "BroadbandQueryTool",
                     "CurationPipeline", "carriage_value"):
            assert hasattr(repro, name)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_lazy_exports_are_the_submodule_objects(self, name):
        """These packages import a submodule when one of its names is
        first read.  ``__all__`` lists exactly the names of the export
        table; each resolves to the object its submodule holds and
        appears in ``dir()``."""
        package = importlib.import_module(name)
        exported = {
            symbol: module
            for module, symbols in package._EXPORTS.items()
            for symbol in symbols
        }
        assert set(package.__all__) - {"__version__"} == set(exported)
        listing = dir(package)
        for symbol, module in exported.items():
            value = getattr(package, symbol)
            assert value is getattr(importlib.import_module(module, name), symbol)
            assert symbol in listing

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_lazy_exports_reject_unknown_names(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"{name!r} has no attribute 'Nope'"):
            package.Nope


# Packages below the executor layer: the world, the BQT client and its
# fleet, the network substrate and the analyses.
LOWER_LAYERS = ("core", "net", "bat", "addresses", "geo", "isp", "analysis")


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative imports resolved."""
    package = path.relative_to(ROOT / "src").with_suffix("").parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join([*base, node.module] if node.module else base)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_lower_layers_do_not_import_the_executor_layer():
    """Executors run shard specs from the dataset and serving layers;
    nothing below them imports ``repro.exec``, even lazily."""
    offenders = []
    for layer in LOWER_LAYERS:
        for path in sorted((ROOT / "src" / "repro" / layer).rglob("*.py")):
            offenders.extend(
                f"{path.relative_to(ROOT / 'src').as_posix()}: {module}"
                for module in sorted(_imported_modules(path))
                if module == "repro.exec" or module.startswith("repro.exec.")
            )
    assert offenders == []


class TestDoctests:
    @pytest.mark.parametrize("name", DOCTEST_MODULES)
    def test_doctests_pass(self, name):
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"{result.failed} doctest failures in {name}"


class TestDocs:
    @pytest.mark.parametrize(
        "filename", ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    )
    def test_doc_exists_and_substantial(self, filename):
        path = ROOT / filename
        assert path.exists(), filename
        assert len(path.read_text()) > 2000, f"{filename} looks thin"

    def test_design_confirms_paper(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper confirmed" in text

    def test_experiments_covers_every_artifact(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for artifact in ("Table 1", "Table 2", "Table 3", "Figure 2",
                         "Figure 4", "Figure 5", "Figure 6", "Figure 7",
                         "Figure 8", "Figure 9"):
            assert artifact in text, f"EXPERIMENTS.md missing {artifact}"

    def test_examples_present(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (ROOT / "examples" / "quickstart.py").exists()

    def test_benchmarks_cover_every_experiment(self):
        from repro.experiments import ALL_EXPERIMENTS

        bench_text = "".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("test_*.py")
        )
        for module_name in (
            "table1", "table2", "table3", "figure2", "figure4", "figure5",
            "figure6", "figure7", "figure8", "figure9", "scaling",
        ):
            assert module_name in bench_text, f"no bench for {module_name}"
        assert len(ALL_EXPERIMENTS) == 11
