"""The package surface, and the layers loading only when first used."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import recstats

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("tables", "perm", "temme", "extremal", "probabilities", "scaling", "oracles", "verify")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter, where pytest and hypothesis have imported nothing."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestLazyLayers:
    # fractions is imported by verify, oracles and probabilities, and by
    # none of the modules a parser build needs; its absence shows that
    # none of the three has run, without reading them

    def test_cli_import_runs_no_unused_layer(self):
        out = run_fresh(f"""
            import sys
            import recstats.cli
            from recstats.cli import main
            print(all(f"recstats.{{name}}" in sys.modules for name in {LAYERS!r}))
            print("fractions" in sys.modules)
            main(["records", "--perm", "2,1,3"])
            print("fractions" in sys.modules)
        """)
        assert out.splitlines() == ["True", "False", '{"positions": [1, 3], "rec": 2, "srec": 4}',
                                    "False"]

    def test_first_attribute_read_loads_the_layer(self):
        out = run_fresh("""
            import sys
            import recstats
            verify = sys.modules["recstats.verify"]
            print("fractions" in sys.modules)
            run_suite = recstats.verify.run_suite
            print("fractions" in sys.modules, callable(run_suite), recstats.verify is verify)
        """)
        assert out.splitlines() == ["False", "True True True"]

    def test_reexport_loads_its_home_layer(self):
        out = run_fresh("""
            import sys
            from recstats import pattern_probability
            print(pattern_probability.__module__, "fractions" in sys.modules)
        """)
        assert out.splitlines() == ["recstats.probabilities True"]


class TestStartUp:
    # a one-shot call pays for every module it imports; these three cost
    # about 16 ms together and no layer needs them

    HEAVY = ("dataclasses", "inspect", "json")

    def test_records_call_imports_none_of_them(self):
        out = run_fresh(f"""
            import sys
            from recstats.cli import main
            main(["records", "--perm", "2,1,3"])
            print(sorted(set({self.HEAVY!r}) & set(sys.modules)))
        """)
        assert out.splitlines() == ['{"positions": [1, 3], "rec": 2, "srec": 4}', "[]"]

    def test_no_layer_imports_them(self):
        # one public attribute per layer, so that each layer's code runs
        attributes = {"tables": "rec_table", "perm": "records", "temme": "temme_estimate",
                      "extremal": "min_product", "probabilities": "pattern_probability",
                      "scaling": "tau_series", "oracles": "i0_greedy", "verify": "run_suite"}
        assert sorted(attributes) == sorted(LAYERS)
        out = run_fresh(f"""
            import sys
            import recstats
            print(all(callable(getattr(getattr(recstats, layer), name))
                      for layer, name in {attributes!r}.items()))
            print(sorted(set({self.HEAVY!r}) & set(sys.modules)))
        """)
        assert out.splitlines() == ["True", "[]"]


class TestSurface:
    @pytest.mark.parametrize("name", recstats.__all__)
    def test_reexport_is_the_home_object(self, name):
        layer = recstats._HOMES[name]
        home = sys.modules[f"recstats.{layer}"]
        value = getattr(recstats, name)
        assert value is getattr(home, name)
        assert getattr(value, "__module__", home.__name__) == home.__name__

    def test_star_import(self):
        namespace: dict = {}
        exec("from recstats import *", namespace)
        assert {name: namespace[name] for name in recstats.__all__} == {
            name: getattr(recstats, name) for name in recstats.__all__
        }

    def test_layers_are_attributes(self):
        for name in LAYERS:
            assert getattr(recstats, name) is sys.modules[f"recstats.{name}"]

    def test_dir_lists_the_exports(self):
        listing = dir(recstats)
        assert set(recstats.__all__) <= set(listing)
        assert set(LAYERS) <= set(listing)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="module 'recstats' has no attribute 'nope'"):
            recstats.nope
