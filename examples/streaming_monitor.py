"""Continuous monitoring with incremental discovery.

Events arrive in batches; the monitor keeps its schema current without
ever re-reading the history.  A discovery state is the run's sufficient
statistics, so the monitor absorbs each batch into a state and
synthesizes on demand:

* a :class:`KReduceState` folds each record exactly (K-reduce
  distributes over union), so the permissive baseline is always exact;
* a :class:`JxplainState` keeps the type bag, and ``synthesize()``
  gives the precise schema of everything absorbed so far — the same
  schema a one-shot run over the whole history would give.

The demo streams three eras of a Matrix-style event log whose protocol
evolves, printing what each monitor noticed.

    python examples/streaming_monitor.py
"""

from repro.datasets import make_dataset
from repro.discovery import JxplainState, KReduceState
from repro.schema import schema_entropy, top_level_entity_count
from repro.validation import diff_schemas


def main() -> None:
    records = make_dataset("synapse").generate(3000, seed=13)
    batches = [records[i : i + 500] for i in range(0, len(records), 500)]

    precise = JxplainState()
    baseline = KReduceState()

    print("streaming 6 batches of 500 events:\n")
    previous_schema = None
    for index, batch in enumerate(batches):
        # Novel: events the schema synthesized so far rejects.
        novel = len(batch) if previous_schema is None else sum(
            1 for record in batch if not previous_schema.admits_value(record)
        )
        precise.absorb_many(batch)
        baseline.absorb_many(batch)
        schema = precise.synthesize()
        line = (
            f"batch {index}: novel={novel:3d}  "
            f"entities={top_level_entity_count(schema):2d}  "
            f"H(jxplain)={schema_entropy(schema):7.1f}  "
            f"H(k-reduce)={schema_entropy(baseline.synthesize()):7.1f}"
        )
        if previous_schema is not None:
            drift = diff_schemas(previous_schema, schema)
            breaking = len(drift.breaking_changes())
            if breaking:
                line += f"  << {breaking} structural change(s)"
        print(line)
        previous_schema = schema

    print(
        f"\nprocessed {precise.record_count} records, retained "
        f"{precise.distinct_count} distinct types "
        f"({100.0 * precise.distinct_count / precise.record_count:.1f}%)"
    )

    # The monitor validates live traffic against the precise schema.
    probe = dict(records[-1])
    probe["totally_new_envelope_field"] = True
    print(f"live validation of a mutated event: {schema.admits_value(probe)}")


if __name__ == "__main__":
    main()
