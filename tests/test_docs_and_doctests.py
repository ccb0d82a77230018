"""Documentation consistency guards and doctest execution.

Keeps DESIGN.md's module map honest (every referenced module file exists),
keeps the README's install instructions aligned with the package layout,
and executes the doctests embedded in public docstrings.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestDesignDocConsistency:
    @pytest.fixture(scope="class")
    def design_text(self):
        return (REPO / "DESIGN.md").read_text()

    def test_design_exists_with_mismatch_note(self, design_text):
        # The source-text caveat must stay at the top of DESIGN.md.
        assert "Source-text status" in design_text
        assert "CA-Krylov" in design_text  # the repro_why discrepancy note

    def test_every_referenced_module_exists(self, design_text):
        refs = set(re.findall(r"`(repro/[a-z_/]+\.py)`", design_text))
        assert refs, "DESIGN.md should reference module paths"
        missing = [r for r in refs if not (REPO / "src" / r).exists()]
        assert not missing, f"DESIGN.md references missing modules: {missing}"

    def test_every_bench_target_exists(self, design_text):
        refs = set(re.findall(r"`(benchmarks/bench_[a-z_]+\.py)`", design_text))
        assert len(refs) >= 14
        missing = [r for r in refs if not (REPO / r).exists()]
        assert not missing, f"DESIGN.md references missing benches: {missing}"

    def test_experiments_md_covers_all_ids(self, design_text):
        experiments = set(re.findall(r"\| (E\d+) ", design_text))
        assert len(experiments) >= 14
        exp_text = (REPO / "EXPERIMENTS.md").read_text()
        missing = [e for e in sorted(experiments) if f"## {e} " not in exp_text]
        assert not missing, f"EXPERIMENTS.md missing sections: {missing}"


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_mentions_paper(self, readme):
        assert "IPDPS" in readme and "10.1109/IPDPS.2014.35" in readme

    def test_quickstart_imports_resolve(self, readme):
        # Every `from repro... import ...` line in the README must work.
        for line in re.findall(r"^from (repro[.\w]*) import ([\w, ]+)$",
                               readme, re.MULTILINE):
            module, names = line
            mod = __import__(module, fromlist=["_"])
            for name in names.split(","):
                assert hasattr(mod, name.strip()), f"{module}.{name.strip()}"

    def test_architecture_modules_exist(self, readme):
        # Module names listed in the architecture tree must exist.
        for sub in ("core", "parallel", "machine", "data", "baselines",
                    "analysis", "bench", "cluster"):
            assert (REPO / "src" / "repro" / sub / "__init__.py").exists()


class TestDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.core.pipeline",
        "repro",
    ])
    def test_module_doctests_pass(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        failures, _tests = doctest.testmod(module, verbose=False)
        assert failures == 0
