"""The staged pipeline agrees with the recursive reference (Algorithm 4)
on a multi-entity corpus whose entities share an envelope.
"""

import pytest

from repro.discovery.jxplain import Jxplain
from repro.discovery.pipeline import JxplainPipeline


@pytest.fixture
def multi_entity_records():
    """Three entity shapes sharing an envelope, plus nested arrays."""
    records = []
    for index in range(12):
        records.append(
            {
                "id": index,
                "type": "push",
                "payload": {"ref": "main", "size": index},
                "tags": ["a", "b"],
            }
        )
        records.append(
            {
                "id": index,
                "type": "fork",
                "payload": {"forkee": {"name": f"r{index}", "private": False}},
            }
        )
        records.append(
            {
                "id": index,
                "type": "watch",
                "actor": {"login": f"u{index}"},
                "tags": [index],
            }
        )
    return records


class TestBackendIndependence:
    def test_pipeline_matches_recursive_reference(self, multi_entity_records):
        assert JxplainPipeline().discover(
            multi_entity_records
        ) == Jxplain().discover(multi_entity_records)
