"""Every certlab name the benchmark looks up must exist.

perfbench/spans.py wraps certlab functions where the program looks them up
(its `TARGETS`), and the tracer and perfbench/test_perfbench.py read a few
more names directly.  This suite does not collect perfbench/, so without
this check a deletion that breaks the traced benchmark would pass it.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def benchmark_lookups() -> list:
    """(module, attribute path) for every TARGETS entry, plus the names
    that spans.instrumented and test_perfbench.py read outside TARGETS."""
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    return [(mod, attr) for _, mod, attr, _ in targets] + [
        ("certlab.fouriersample", "wht_rows"),
        ("certlab.fouriersample", "HonestSampler.sample_batch"),
        ("certlab.cli", "json"),
        ("certlab.boolfn", "BooleanFunction.__post_init__"),
    ]


def test_every_benchmark_lookup_resolves():
    # as spans.instrumented resolves them: a module attribute, or an entry
    # in the class's own __dict__ for a method
    missing = []
    for modname, attr in benchmark_lookups():
        owner = importlib.import_module(modname)
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or key not in vars(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []
