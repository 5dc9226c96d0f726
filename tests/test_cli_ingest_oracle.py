"""The classic reader and the plain route as the CLI's differential
oracles.

Every ``discover`` run takes one route: it builds a state, absorbs its
input files through ``absorb_files`` and synthesizes.  ``--ingest``
selects only the reader, and both readers yield the same interned
types in the same order.  So default-flag output must be
byte-identical to ``--ingest classic`` for every algorithm, on corpora
with few distinct shapes (github), nested collections (pharma) and
many distinct types (yelp-merged), and under every bad-record policy,
warning line included.

One conditional is left at synthesis: a plain ``bimax-merge`` or
``bimax-naive`` run (no ``--checkpoint``, ``--shards``, ``--resume``,
``--append`` or ``--enrich``) synthesizes with Algorithm 4
(``JxplainMerger``), and every other run with the state's staged
synthesis (``JxplainState.synthesize``).  The checkpointed and sharded
runs must still print the plain run's bytes.  Known divergences of the
two syntheses are pinned as strict xfails: ``bimax-naive`` on
yelp-merged (:data:`BIMAX_NAIVE_DIVERGENCE`), the k-means entity
strategy on github and yelp-merged (:data:`KMEANS_DIVERGENCE`), and
default ``bimax-merge`` on twitter (:data:`TWITTER_DIVERGENCE`), the
one algorithm that corpus is checked with.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.datasets import make_dataset
from repro.discovery import discoverer_names
from repro.io.jsonlines import write_jsonlines

CORPORA = ("github", "pharma", "yelp-merged")
#: Checked on the stateful routes with default ``bimax-merge`` only.
STATEFUL_ONLY_CORPORA = ("twitter",)
ALGORITHMS = discoverer_names()
RECORDS = 500


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    paths = {}
    for seed, name in enumerate(CORPORA + STATEFUL_ONLY_CORPORA, start=1):
        path = root / f"{name}.jsonl"
        write_jsonlines(path, make_dataset(name).generate(RECORDS, seed=seed))
        paths[name] = path
    return paths


def _discover(path, tmp_path, capsys, *flags):
    """Schema bytes and stderr of one ``discover --format json`` run."""
    output = tmp_path / "schema.json"
    code = main(
        ["discover", str(path), "--format", "json",
         "--output", str(output), *flags]
    )
    assert code == 0
    return output.read_bytes(), capsys.readouterr().err


#: Why ``bimax-naive`` on yelp-merged differs between routes.
BIMAX_NAIVE_DIVERGENCE = (
    "the plain route runs Algorithm 4 (JxplainMerger) while the stateful "
    "routes run the pass 2/3 partitioners of "
    "JxplainState.synthesize_result; both are order-invariant, so they "
    "differ in what they compute for bimax-naive on many distinct types"
)


#: Why ``--strategy kmeans`` differs between routes (ROADMAP F12).
KMEANS_DIVERGENCE = (
    "ROADMAP F12: the plain route runs Algorithm 4 (JxplainMerger), "
    "which decides collection vs tuple inside each k-means entity, while "
    "the stateful routes run passes 1-3 of "
    "JxplainState.synthesize_result, whose pass 1 decides once per path "
    "over all records"
)


#: Why default ``bimax-merge`` on twitter differs between routes.
TWITTER_DIVERGENCE = (
    "ROADMAP F12: on twitter the plain route's Algorithm 4 "
    "(JxplainMerger) makes entities.hashtags/urls/user_mentions tuples "
    "where pass 1 of JxplainState.synthesize_result makes them "
    "collections, and orders some anyOf branches differently"
)


def _route_cases():
    for corpus in CORPORA:
        for algorithm in ALGORITHMS:
            marks = ()
            if (corpus, algorithm) == ("yelp-merged", "bimax-naive"):
                marks = pytest.mark.xfail(
                    strict=True, reason=BIMAX_NAIVE_DIVERGENCE
                )
            yield pytest.param(
                corpus, ("--algorithm", algorithm), marks=marks,
                id=f"{corpus}-{algorithm}",
            )
        marks = ()
        if corpus != "pharma":
            marks = pytest.mark.xfail(strict=True, reason=KMEANS_DIVERGENCE)
        yield pytest.param(
            corpus, ("--strategy", "kmeans"), marks=marks,
            id=f"{corpus}-kmeans",
        )
    yield pytest.param(
        "twitter", ("--algorithm", "bimax-merge"),
        marks=pytest.mark.xfail(strict=True, reason=TWITTER_DIVERGENCE),
        id="twitter-bimax-merge",
    )


@pytest.mark.parametrize("route", ["checkpoint", "shards"])
@pytest.mark.parametrize("corpus,options", list(_route_cases()))
def test_stateful_routes_equal_default(
    corpora, tmp_path, capsys, corpus, options, route
):
    flags = {
        "checkpoint": ("--checkpoint", str(tmp_path / "state.ckpt")),
        "shards": ("--shards", "2"),
    }[route]
    default = _discover(corpora[corpus], tmp_path, capsys, *options)
    assert default == _discover(
        corpora[corpus], tmp_path, capsys, *options, *flags
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("corpus", CORPORA)
def test_default_output_equals_classic_oracle(
    corpora, tmp_path, capsys, corpus, algorithm
):
    flags = ("--algorithm", algorithm)
    default = _discover(corpora[corpus], tmp_path, capsys, *flags)
    oracle = _discover(
        corpora[corpus], tmp_path, capsys, *flags, "--ingest", "classic"
    )
    assert default == oracle


#: Good records interleaved with each kind of line the readers must
#: reject identically: truncated objects, bare garbage, an unterminated
#: string, a bad escape, and a non-ASCII garbage line.
MALFORMED_LINES = [
    '{"id": 1, "tags": ["a"]}',
    '{"id": 2,',
    '{"id": 3, "tags": []}',
    "not json",
    '{"id": "unterminated}',
    '{"id": 4, "name": "caf\\u00e9"}',
    '{"id": "\\x"}',
    "",
    '{"id": 5, "tags": ["b", "c"], "extra": null}',
    "ünïcode garbage",
    '{"id": 6, "tags": ["d"]}',
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("policy", ["skip", "collect"])
def test_bad_record_policies_match_classic_oracle(
    tmp_path, capsys, policy, algorithm
):
    path = tmp_path / "malformed.jsonl"
    path.write_text("\n".join(MALFORMED_LINES * 20) + "\n", encoding="utf-8")
    flags = ("--algorithm", algorithm, "--on-bad-record", policy)
    schema, err = _discover(path, tmp_path, capsys, *flags)
    assert (schema, err) == _discover(
        path, tmp_path, capsys, *flags, "--ingest", "classic"
    )
    assert err.startswith(f"warning: {path}: 100 records, 100 bad line(s)")
