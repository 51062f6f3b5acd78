"""What the benchmark in perfbench/ reads of the package.

The tracer of ``perfbench/run.py --trace 1`` patches the (module, attribute)
pairs of ``perfbench/layers.py``, and the CLI probe of the recognize
workload compares ``--json is-unigraph`` output with one tag per strip. A
change that renames one of those names or packs that output would break the
benchmark silently, so these tests hold both. They read perfbench/ and do
not edit it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from unigraph.cli import main

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS_MODULE = load_layers()
TRACED = [entry[:2] for entry in LAYERS_MODULE.SPANS + LAYERS_MODULE.COUNTS]


@pytest.mark.parametrize("mod, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(mod, attr):
    target = importlib.import_module(f"unigraph.{mod}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_cli_probe_reads_one_tag_per_strip(capsys):
    assert main(["--json", "is-unigraph", "-d", "3^4"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "isUnigraph": True,
        "components": ["k1", "k1", "k1", "k1"],
        "failureIndex": None,
    }
