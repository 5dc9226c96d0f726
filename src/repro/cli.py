"""Command-line interface: ``jxplain``.

Subcommands:

* ``discover`` — extract a schema from a JSON-lines file and print it
  (text or JSON Schema);
* ``validate`` — validate a JSON-lines file against a JSON Schema
  document produced by ``discover --format json``;
* ``entropy`` — report the schema entropy of a stored schema;
* ``generate`` — materialize one of the synthetic datasets as
  JSON-lines;
* ``diff`` — compare two stored schemas and report structural changes;
* ``docs`` — render a stored schema as a Markdown documentation page;
* ``coref`` — report entities repeated at multiple schema paths;
* ``datasets`` / ``algorithms`` — list what is available.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# What a default ``discover`` runs, and nothing else: every other
# subsystem is imported by the code that runs it (tests/test_imports.py).
from repro.discovery import (
    EntityStrategy,
    JxplainConfig,
    JxplainMerger,
    load_state,
    state_for_algorithm,
)
from repro.discovery.state import ALGORITHM_NAMES
from repro.engine.sharding import absorb_files, save_checkpoint
from repro.errors import ReproError
from repro.io.jsonlines import (
    INGEST_MODES,
    INGEST_POLICIES,
    ingest_jsonlines,
    write_jsonlines,
)
from repro.schema import from_json_schema, render, to_json_schema

#: The names :func:`repro.datasets.dataset_names` lists, for the
#: ``generate`` help text.  The parser is built on every call to
#: :func:`main`, and importing the dataset generators would add their
#: import to every ``discover``; a test pins this tuple to the registry.
_DATASET_NAMES = (
    "figure1",
    "github",
    "nyt",
    "pharma",
    "synapse",
    "twitter",
    "wikidata",
    "yelp-business",
    "yelp-checkin",
    "yelp-merged",
    "yelp-photos",
    "yelp-review",
    "yelp-tip",
    "yelp-user",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jxplain",
        description="Ambiguity-aware JSON schema discovery (SIGMOD 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    discover = sub.add_parser(
        "discover", help="extract a schema from a JSON-lines file"
    )
    discover.add_argument(
        "input",
        nargs="?",
        default=None,
        help="path to a .jsonl file (optional with --resume)",
    )
    discover.add_argument(
        "--algorithm",
        default="bimax-merge",
        help="one of: " + ", ".join(ALGORITHM_NAMES),
    )
    discover.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output as readable text or a JSON Schema document",
    )
    discover.add_argument(
        "--output", default=None, help="write the schema here instead of stdout"
    )
    discover.add_argument(
        "--threshold", type=float, default=None,
        help="key-space entropy threshold (default 1.0)",
    )
    discover.add_argument(
        "--similarity-depth", type=int, default=None,
        help="bound the similarity check depth (default: unbounded)",
    )
    discover.add_argument(
        "--strategy", default=None,
        choices=[strategy.value for strategy in EntityStrategy],
        help="entity strategy (default bimax-merge)",
    )
    discover.add_argument(
        "--no-collections", action="store_true",
        help="disable collection detection (K-reduce-style objects/arrays)",
    )
    discover.add_argument(
        "--on-bad-record",
        choices=INGEST_POLICIES,
        default="raise",
        help="malformed input lines: abort (raise), drop them (skip), "
        "or drop and report payloads (collect)",
    )
    discover.add_argument(
        "--ingest",
        choices=INGEST_MODES,
        default="fused",
        help="which reader builds the record types: stream interned "
        "types in one pass over the bytes with a shape cache (fused, "
        "the default) or parse values first (classic, the "
        "differential oracle).  Selects a reader, not a code path: "
        "the schema is byte-identical either way",
    )
    discover.add_argument(
        "--enrich", default=None, metavar="FEATURES",
        help="collect value-domain evidence alongside discovery: a "
        "comma list from {sketches, unions}.  'sketches' annotates "
        "JSON Schema output with min/max bounds, string formats, "
        "distinct-value estimates, and Bloom membership filters; "
        "'unions' detects tagged unions from low-entropy "
        "discriminant keys.  The structural schema is unchanged.",
    )
    discover.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="save the discovery state here after the run "
        "(resume later with --resume)",
    )
    discover.add_argument(
        "--resume", action="store_true",
        help="load the state from --checkpoint and continue from it "
        "instead of starting fresh",
    )
    discover.add_argument(
        "--append", action="append", default=[], metavar="FILE",
        help="absorb this additional .jsonl file into the state "
        "(repeatable)",
    )
    discover.add_argument(
        "--shards", default=None, metavar="N|auto",
        help="split the input into newline-aligned byte ranges and "
        "discover them in parallel workers (auto sizes the shard "
        "count adaptively); state and schema are byte-identical to "
        "an unsharded run",
    )
    discover.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="with --shards: run the shards in forked worker "
        "processes, at most N at once (default: the REPRO_EXECUTOR "
        "backend)",
    )
    discover.add_argument(
        "--merge-fanin", type=int, default=None, metavar="K",
        help="with --shards: fan-in of the partial-state merge tree "
        "(default 2; any value yields identical bytes)",
    )

    validate = sub.add_parser(
        "validate", help="validate records against a stored JSON Schema"
    )
    validate.add_argument("schema", help="JSON Schema document (from discover)")
    validate.add_argument("input", help="path to a .jsonl file")
    validate.add_argument(
        "--explain", type=int, default=0, metavar="N",
        help="print explanations for the first N failures",
    )
    validate.add_argument(
        "--on-bad-record",
        choices=INGEST_POLICIES,
        default="raise",
        help="malformed input lines: abort (raise), drop them (skip), "
        "or drop and report payloads (collect)",
    )

    entropy = sub.add_parser(
        "entropy", help="schema entropy of a stored JSON Schema"
    )
    entropy.add_argument("schema", help="JSON Schema document")
    entropy.add_argument(
        "--literal-collections",
        action="store_true",
        help="use the literal (compounding) collection count",
    )

    generate = sub.add_parser(
        "generate", help="materialize a synthetic dataset as JSON-lines"
    )
    generate.add_argument(
        "dataset", help="one of: " + ", ".join(_DATASET_NAMES)
    )
    generate.add_argument("output", help="path of the .jsonl file to write")
    generate.add_argument("--records", type=int, default=0)
    generate.add_argument("--seed", type=int, default=0)

    diff = sub.add_parser(
        "diff", help="compare two stored JSON Schema documents"
    )
    diff.add_argument("old", help="baseline schema (from discover)")
    diff.add_argument("new", help="candidate schema (from discover)")
    diff.add_argument(
        "--breaking-only",
        action="store_true",
        help="report only changes that affect validation",
    )

    docs = sub.add_parser(
        "docs", help="render a stored schema as Markdown documentation"
    )
    docs.add_argument("schema", help="JSON Schema document")
    docs.add_argument("--title", default="Discovered schema")
    docs.add_argument(
        "--output", default=None, help="write Markdown here instead of stdout"
    )

    coref = sub.add_parser(
        "coref", help="find entities repeated at multiple schema paths"
    )
    coref.add_argument("schema", help="JSON Schema document")
    coref.add_argument(
        "--jaccard", type=float, default=0.8,
        help="near-equality threshold on key-set overlap",
    )

    sub.add_parser("datasets", help="list dataset generators")
    sub.add_parser("algorithms", help="list discovery algorithms")
    return parser


def _warn_bad_records(report) -> None:
    if not report.ok:
        print(f"warning: {report.summary()}", file=sys.stderr)


def _read_input(path: str, on_bad_record: str) -> list:
    """The file's parsed values, through the classic reader."""
    records, report = ingest_jsonlines(path, on_bad_record=on_bad_record)
    _warn_bad_records(report)
    return records


def _discover_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if args.threshold is not None:
        overrides["entropy_threshold"] = args.threshold
    if args.similarity_depth is not None:
        overrides["similarity_depth"] = args.similarity_depth
    if args.strategy is not None:
        overrides["entity_strategy"] = EntityStrategy(args.strategy)
    if args.no_collections:
        overrides["detect_object_collections"] = False
        overrides["detect_array_tuples"] = False
    return overrides


def _emit_schema(schema, args: argparse.Namespace, state=None) -> None:
    if args.format == "json":
        document = to_json_schema(schema)
        enrichment = getattr(state, "enrichment", None)
        if enrichment is not None:
            from repro.schema import annotate_json_schema

            document = annotate_json_schema(document, enrichment)
            if enrichment.options.unions:
                decision = _extract_tagged_union(state)
                if decision is not None:
                    from repro.discovery.tagged_unions import (
                        tagged_union_json_schema,
                    )

                    document["x-repro-tagged-union"] = {
                        "key": decision.key,
                        "schema": tagged_union_json_schema(decision),
                    }
        # allow_nan=False: a non-finite number is not JSON, so it
        # fails the run instead of being written.
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    else:
        # A lone surrogate from an escaped "\ud800" key cannot be
        # written as UTF-8; it prints as its escape.  Valid text keeps
        # its bytes.
        text = render(schema).encode("utf-8", "backslashreplace").decode()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _extract_tagged_union(state):
    """The state's best tagged-union decision, or ``None``.

    K-reduce states retain no type bag (branch schemas cannot be
    rebuilt), so extraction degrades to a warning instead of failing
    the run.
    """
    from repro.discovery.tagged_unions import extract_tagged_unions

    try:
        decisions = extract_tagged_unions(state)
    except ValueError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return None
    return decisions[0] if decisions else None


def _parse_count(value: str, option: str) -> int:
    """A positive int; anything else exits 2."""
    try:
        count = int(value)
    except ValueError:
        print(
            f"error: {option} must be a positive integer or 'auto', "
            f"got {value!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if count < 1:
        print(f"error: {option} must be >= 1, got {count}", file=sys.stderr)
        raise SystemExit(2)
    return count


def _cmd_discover(args: argparse.Namespace) -> int:
    """One route: build a state (or load it with ``--resume``), absorb
    the input files, synthesize; checkpoint, resume, append, enrich and
    shards compose freely.

    Every input file enters the state through
    :func:`repro.engine.sharding.absorb_files`, in this process or (with
    ``--shards``) in shard workers over byte ranges; with a checkpoint,
    a sharded file keeps per-shard checkpoints until the state is
    saved, so a killed run resumes from its completed shards.
    ``--ingest`` only picks the reader.
    """
    overrides = _discover_overrides(args)
    if args.shards is None and (
        args.workers is not None or args.merge_fanin is not None
    ):
        print(
            "error: --workers/--merge-fanin require --shards",
            file=sys.stderr,
        )
        return 2
    if args.algorithm == "bimax-naive" and args.strategy not in (
        None, EntityStrategy.BIMAX_NAIVE.value
    ):
        print(
            f"error: --algorithm bimax-naive fixes the entity strategy; "
            f"--strategy {args.strategy} needs --algorithm bimax-merge",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.enrich is not None:
        print(
            "error: --enrich cannot change a resumed state; enrichment "
            "was fixed when the checkpoint was created",
            file=sys.stderr,
        )
        return 2
    shards = args.shards
    if shards is not None and shards != "auto":
        shards = _parse_count(shards, "--shards")
    paths = [args.input] if args.input else []
    paths.extend(args.append)
    if args.resume:
        if not args.checkpoint:
            print("error: --resume requires --checkpoint", file=sys.stderr)
            return 2
        if overrides:
            print(
                "error: --threshold/--strategy options cannot change a "
                "resumed state; they were fixed when it was created",
                file=sys.stderr,
            )
            return 2
        state = load_state(args.checkpoint)
    else:
        if not paths:
            print(
                "error: discover needs an input file (or --resume)",
                file=sys.stderr,
            )
            return 2
        try:
            state = state_for_algorithm(
                args.algorithm,
                JxplainConfig().with_(**overrides) if overrides else None,
                enrich=args.enrich,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    executor = None
    if args.workers is not None:
        from repro.engine.executor import ProcessExecutor

        executor = ProcessExecutor(max_workers=args.workers)
    try:
        state, reports = absorb_files(
            state,
            paths,
            ingest=args.ingest,
            on_bad_record=args.on_bad_record,
            shards=shards,
            executor=executor,
            merge_fanin=args.merge_fanin,
            checkpoint=args.checkpoint,
        )
    finally:
        if executor is not None:
            executor.close()
    for report in reports:
        _warn_bad_records(report)
    if state.record_count == 0:
        print("error: input contains no records", file=sys.stderr)
        return 2
    plain = not (
        args.shards is not None or args.checkpoint or args.resume
        or args.append or args.enrich is not None
    )
    if plain and args.algorithm in ("bimax-merge", "bimax-naive", "jxplain"):
        # ROADMAP F12 / item 2(a): a plain bimax-* run (and ``jxplain``,
        # bimax-merge's state name) keeps Algorithm 4's bytes until one
        # synthesis serves every route.
        schema = JxplainMerger(state.config).merge(state.bag)
    else:
        schema = state.synthesize()
    if args.checkpoint:
        save_checkpoint(state, args.checkpoint, paths)
    _emit_schema(schema, args, state=state)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import first_failures, validate_records

    with open(args.schema, encoding="utf-8") as handle:
        schema = from_json_schema(json.load(handle))
    # Validation needs the values, so it always reads them classically.
    records = _read_input(args.input, args.on_bad_record)
    report = validate_records(schema, records)
    print(
        f"validated {report.total} records: "
        f"{report.valid_count} accepted, {report.invalid_count} rejected "
        f"(recall {report.recall:.4f})"
    )
    if args.explain > 0 and report.invalid_count:
        for index, violations in first_failures(
            schema, records, limit=args.explain
        ):
            print(f"record {index}:")
            for violation in violations:
                print(f"  {violation}")
    return 0 if report.invalid_count == 0 else 1


def _cmd_entropy(args: argparse.Namespace) -> int:
    from repro.schema import schema_entropy

    with open(args.schema, encoding="utf-8") as handle:
        schema = from_json_schema(json.load(handle))
    value = schema_entropy(
        schema, literal_collections=args.literal_collections
    )
    print(f"{value:.4f}")
    return 0


def _load_schema(path: str):
    with open(path, encoding="utf-8") as handle:
        return from_json_schema(json.load(handle))


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.validation import diff_schemas

    diff = diff_schemas(_load_schema(args.old), _load_schema(args.new))
    changes = (
        diff.breaking_changes() if args.breaking_only else diff.changes
    )
    if not changes:
        print("schemas are structurally identical")
        return 0
    for change in changes:
        marker = "!" if change.breaking else " "
        print(f"{marker} {change}")
    return 1 if diff.breaking_changes() else 0


def _cmd_docs(args: argparse.Namespace) -> int:
    from repro.schema import schema_to_markdown

    text = schema_to_markdown(_load_schema(args.schema), title=args.title)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_coref(args: argparse.Namespace) -> int:
    from repro.discovery import find_coreferences

    groups = find_coreferences(
        _load_schema(args.schema), jaccard_threshold=args.jaccard
    )
    if not groups:
        print("no co-references found")
        return 0
    for group in groups:
        print(group.describe())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import make_dataset

    generator = make_dataset(args.dataset)
    records = generator.generate(args.records, seed=args.seed)
    count = write_jsonlines(args.output, records)
    print(f"wrote {count} records to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``jxplain`` console script.

    Exit codes: 0 on success, 1 when ``validate`` rejects records (or
    ``diff`` finds a breaking change), and 2 for
    a usage error or a library error (:class:`~repro.errors.ReproError`:
    malformed or unreadable input, over-deep records, bad checkpoints),
    which prints ``error: …`` instead of a traceback.
    """
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an
        # error from the user's point of view.
        import os

        try:
            sys.stdout.close()
        except Exception as exc:
            # Usually a second BrokenPipeError from flushing the
            # already-dead pipe.  Still accounted for: the counter
            # always ticks, and REPRO_VERBOSE surfaces the details.
            from repro.engine.instrument import counters

            counters.add("cli.stdout_close_errors")
            if os.environ.get("REPRO_VERBOSE"):
                print(
                    f"warning: stdout close failed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
        os._exit(0)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "discover":
        return _cmd_discover(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "entropy":
        return _cmd_entropy(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "docs":
        return _cmd_docs(args)
    if args.command == "coref":
        return _cmd_coref(args)
    if args.command == "datasets":
        from repro.datasets import dataset_names

        print("\n".join(dataset_names()))
        return 0
    if args.command == "algorithms":
        print("\n".join(ALGORITHM_NAMES))
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
