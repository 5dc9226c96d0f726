"""ROADMAP F12's sweep: Algorithm 4 against the staged synthesis.

A plain ``bimax-merge``/``bimax-naive`` run synthesizes with
Algorithm 4 (``JxplainMerger(state.config).merge(state.bag)``), which
decides collection vs tuple on each entity's sub-bag; every stateful
route runs passes ①–③ (``state.synthesize()``), which decide once per
path.  For every registered dataset and both strategies, one state
absorbs the same records and the two syntheses' JSON Schema bytes are
compared.  The cells where they differ are strict xfails naming F12,
so the day one synthesis serves every route flips them.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import dataset_names, make_dataset
from repro.discovery import JxplainMerger, state_for_algorithm
from repro.schema import to_json_schema

#: Records per dataset.  Wikidata's synthesis is by far the slowest:
#: at 40 records its two cells take 4.4 s of the 7.5 s sweep, at 15 they
#: take about 1 s and still diverge (``similarity_depth=3`` would make
#: them agree, so it is not used).
RECORDS = {"wikidata": 15}
DEFAULT_RECORDS = 300

F12 = (
    "ROADMAP F12: Algorithm 4 decides collections per entity sub-bag, "
    "the staged passes once per path"
)

#: The cells whose two syntheses differ today.
DIVERGENT = {
    "bimax-merge": {
        "synapse", "twitter", "wikidata", "yelp-business", "yelp-merged",
    },
    "bimax-naive": {
        "nyt", "synapse", "twitter", "wikidata", "yelp-business",
        "yelp-merged",
    },
}


def _cells():
    for algorithm in ("bimax-merge", "bimax-naive"):
        for name in dataset_names():
            marks = ()
            if name in DIVERGENT[algorithm]:
                marks = pytest.mark.xfail(strict=True, reason=F12)
            yield pytest.param(algorithm, name, marks=marks,
                               id=f"{algorithm}-{name}")


def _bytes(schema) -> str:
    return json.dumps(to_json_schema(schema), indent=2, sort_keys=True)


@pytest.mark.parametrize("algorithm,name", list(_cells()))
def test_algorithm_4_matches_the_staged_synthesis(algorithm, name):
    state = state_for_algorithm(algorithm)
    records = RECORDS.get(name, DEFAULT_RECORDS)
    state.absorb_many(make_dataset(name).generate(records, seed=5))
    merged = JxplainMerger(state.config).merge(state.bag)
    # One bool: pytest's diff of two long documents costs seconds.
    agree = _bytes(merged) == _bytes(state.synthesize())
    assert agree
