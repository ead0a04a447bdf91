"""The names the benchmark tracer patches still exist in the package.

perfbench/spans.py swaps wrappers in for spexlab attributes by name, and its
own tests are not part of this suite; a renamed or deleted attribute would
otherwise fail only there. The tracer module is compiled from its source
text, so nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

from spexlab import asymptotics, path, patterns, spectral

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    mod = types.ModuleType("spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         mod.__dict__)
    return mod


def test_every_traced_site_resolves():
    missing = [f"{module}.{attr}" for module, attr, _ in _load_spans().SITES
               if not hasattr(importlib.import_module(f"spexlab.{module}"), attr)]
    assert missing == []


def test_cform_keeps_its_lru_statistics():
    # the tracer reads the hits and misses of patterns._cform.cache_info()
    # when it installs its wrappers and when it restores the originals
    info = patterns._cform.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_builders_registry_is_a_dict():
    assert isinstance(asymptotics._BUILDERS, dict)
    assert asymptotics._BUILDERS


def test_spectral_result_reports_iterations():
    assert spectral.spectral_radius(path(3)).iterations == 0
