"""IO: JSON-lines streaming (with an error channel), the fused
bytes-to-type fast path, and sampling."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.io.fastpath": (
            "absorb_file",
            "read_jsonlines_fused",
            "split_byte_ranges",
        ),
        "repro.io.jsonlines": (
            "BAD_PAYLOAD_LIMIT",
            "BadRecord",
            "INGEST_MODES",
            "INGEST_POLICIES",
            "IngestReport",
            "ingest_jsonlines",
            "load_jsonlines",
            "merge_ingest_reports",
            "read_jsonlines",
            "write_jsonlines",
        ),
        "repro.io.sampling": (
            "PAPER_TEST_FRACTION",
            "PAPER_TRAINING_FRACTIONS",
            "PAPER_TRIALS",
            "TrainTestSplit",
            "paper_protocol",
            "train_test_split",
            "trial_samples",
            "uniform_sample",
        ),
    },
)
