"""What the benchmark in perfbench/ reads of the package.

The tracer of ``perfbench/run.py --trace 1`` patches the (module, attribute)
pairs of ``perfbench/layers.py``, the CLI probe of the recognize workload
compares ``--json is-unigraph`` output with one tag per strip, and every
timed item goes through ``perfbench/ops.py`` and its workload's own output
check in ``perfbench/workloads.py``. A change that renames one of those
names, packs that output or answers an item wrongly would break or refuse
the benchmark, so these tests hold all three on the warm-up items. They
read perfbench/ and do not edit it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import unigraph
from unigraph.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py as a module of its own, without running run.py."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS_MODULE = load("layers")
OPS, WORKLOADS = load("ops"), load("workloads")
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


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_warmup_items_pass_their_workload_check(name):
    spec = WORKLOADS.WORKLOADS[name]
    for item in spec["warmup"](unigraph, WORKLOADS.rng_for(name, "warmup")):
        kind, payload, _ = item
        out = OPS.call(unigraph, kind, OPS.prepare(unigraph, kind, payload))
        assert spec["check"](unigraph, item, out) is None, kind
