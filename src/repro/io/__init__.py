"""IO: JSON-lines streaming (with an error channel), the fused
bytes-to-type fast path, and sampling."""

from repro.io.fastpath import (
    absorb_file,
    read_jsonlines_fused,
    split_byte_ranges,
)
from repro.io.jsonlines import (
    BAD_PAYLOAD_LIMIT,
    BadRecord,
    INGEST_MODES,
    INGEST_POLICIES,
    IngestReport,
    ingest_jsonlines,
    load_jsonlines,
    merge_ingest_reports,
    read_jsonlines,
    write_jsonlines,
)
from repro.io.sampling import (
    PAPER_TEST_FRACTION,
    PAPER_TRAINING_FRACTIONS,
    PAPER_TRIALS,
    TrainTestSplit,
    paper_protocol,
    train_test_split,
    trial_samples,
    uniform_sample,
)

__all__ = [
    "BAD_PAYLOAD_LIMIT",
    "BadRecord",
    "INGEST_MODES",
    "INGEST_POLICIES",
    "IngestReport",
    "PAPER_TEST_FRACTION",
    "PAPER_TRAINING_FRACTIONS",
    "PAPER_TRIALS",
    "TrainTestSplit",
    "absorb_file",
    "ingest_jsonlines",
    "load_jsonlines",
    "merge_ingest_reports",
    "paper_protocol",
    "read_jsonlines",
    "read_jsonlines_fused",
    "split_byte_ranges",
    "train_test_split",
    "trial_samples",
    "uniform_sample",
    "write_jsonlines",
]
