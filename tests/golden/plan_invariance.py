"""Execution-plan invariance: the tree-growing pins under perturbed knobs.

Three module constants decide how tree growth groups its work and none
of them may change an output bit:

- ``splitter._BATCH_ELEMENTS`` (and its copy ``growth._BATCH_ELEMENTS``)
  caps the padded elements of one split-search block and the lane
  elements partitioned at once;
- ``splitter._BLOCK_OVERHEAD`` decides when padding opens a new block;
- ``growth._LOCKSTEP_ELEMENTS`` caps the root lane elements grown in
  lockstep.

Each is set to a tiny value (one lane per block, a block per node
width, one tree per lockstep group) and to a huge one (everything in
one block, one group), and the golden recipes that grow trees are
re-run against their pinned digests in ``hashes.json``.

The module takes longer than tier-1 should spend on it, so its name
keeps it out of default test discovery; run it by path::

    PYTHONPATH=src python -m pytest tests/golden/plan_invariance.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from dispute_models import dispute_model
from test_golden import (
    _best_first_entropy,
    _depth_first_sqrt_entropy,
    _three_class_tree,
    table_digest,
)

from repro.datasets import ijcnn1_like, mnist26_like
from repro.trees import growth, splitter

HASHES = Path(__file__).resolve().parent / "hashes.json"
HUGE = 1 << 40

#: The same recipes as the golden fixtures of these names; the dispute
#: models are rebuilt here rather than read from their session cache.
RECIPES = {
    "wm_ijcnn1_tables": lambda: table_digest(
        dispute_model(ijcnn1_like(700, random_state=101), 110)[0].ensemble.compile().to_tables()
    ),
    "wm_mnist26_tables": lambda: table_digest(
        dispute_model(mnist26_like(300, random_state=201, image_size=14), 210)[0]
        .ensemble.compile().to_tables()
    ),
    "best_first_entropy_tables": _best_first_entropy,
    "depth_first_sqrt_entropy_tables": _depth_first_sqrt_entropy,
    "three_class_tree_tables": _three_class_tree,
}

#: Knob -> ``(module, attribute)`` pairs it sets, and its tiny value.
KNOBS = {
    "batch_elements": ([(splitter, "_BATCH_ELEMENTS"), (growth, "_BATCH_ELEMENTS")], 1),
    "block_overhead": ([(splitter, "_BLOCK_OVERHEAD")], 0),
    "lockstep_elements": ([(growth, "_LOCKSTEP_ELEMENTS")], 1),
}


@pytest.mark.parametrize("recipe", sorted(RECIPES))
@pytest.mark.parametrize("size", ["tiny", "huge"])
@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_pins_hold_under_perturbed_knob(knob, size, recipe, monkeypatch):
    targets, tiny = KNOBS[knob]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, tiny if size == "tiny" else HUGE)
    pinned = json.loads(HASHES.read_text(encoding="utf-8"))[recipe]
    assert RECIPES[recipe]() == pinned
