"""Checkpoint / resume / append, end to end.

The contract under test: a checkpointed run that is later resumed and
fed only the *new* records produces a byte-identical schema to a
one-shot run over the concatenated input — including after a simulated
crash (an injected fault that kills the re-run mid-pipeline), and
under the process executor backend.
"""

import json

import pytest

from repro.cli import main
from repro.datasets import make_dataset
from repro.discovery import JxplainPipeline, JxplainState, load_state
from repro.engine import InjectedFault, clear_fault_plan, install_fault_plan
from repro.engine.instrument import counters
from repro.errors import CheckpointError
from repro.io.jsonlines import write_jsonlines
from repro.schema import to_json_schema


def schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


@pytest.fixture
def corpus(tmp_path):
    """github records split into a base file and a 25% append file."""
    records = make_dataset("github").generate(160, seed=7)
    cut = 120
    base = tmp_path / "base.jsonl"
    extra = tmp_path / "extra.jsonl"
    full = tmp_path / "full.jsonl"
    write_jsonlines(base, records[:cut])
    write_jsonlines(extra, records[cut:])
    write_jsonlines(full, records)
    return base, extra, full


class TestPipelineCheckpoint:
    def test_checkpoint_written_and_counted(self, corpus, tmp_path):
        base, _, _ = corpus
        ckpt = tmp_path / "state.ckpt"
        written_before = counters.get("state.checkpoints_written")
        result = JxplainPipeline().run_file(base, checkpoint=ckpt)
        assert ckpt.exists()
        assert isinstance(result.state, JxplainState)
        assert result.state.record_count == 120
        assert counters.get("state.checkpoints_written") == written_before + 1
        # The file holds exactly the state the result carries.
        loaded_before = counters.get("state.checkpoints_loaded")
        assert load_state(ckpt) == result.state
        assert counters.get("state.checkpoints_loaded") == loaded_before + 1

    def test_resume_append_equals_one_shot(self, corpus, tmp_path):
        base, extra, full = corpus
        ckpt = tmp_path / "state.ckpt"
        JxplainPipeline().run_file(base, checkpoint=ckpt)
        resumed = JxplainPipeline().run_file(
            checkpoint=ckpt, resume=True, append=[extra]
        )
        one_shot = JxplainPipeline().run_file(full)
        assert schema_bytes(resumed.schema) == schema_bytes(one_shot.schema)
        assert resumed.record_count == 160
        # The checkpoint now holds the extended state: resuming again
        # with nothing new re-synthesizes the same schema (chaining).
        again = JxplainPipeline().run_file(checkpoint=ckpt, resume=True)
        assert schema_bytes(again.schema) == schema_bytes(one_shot.schema)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            JxplainPipeline().run_file(resume=True)

    def test_resume_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            JxplainPipeline().run_file(
                checkpoint=tmp_path / "missing.ckpt", resume=True
            )

    def test_resume_rejects_foreign_state(self, corpus, tmp_path):
        from repro.discovery import KReduceState, save_state

        base, _, _ = corpus
        ckpt = tmp_path / "kreduce.ckpt"
        state = KReduceState.empty()
        state.absorb({"a": 1})
        save_state(state, ckpt)
        with pytest.raises(CheckpointError):
            JxplainPipeline().run_file(checkpoint=ckpt, resume=True)

    def test_kill_and_resume_is_byte_identical(self, corpus, tmp_path):
        """A crashed re-run loses nothing that the checkpoint holds.

        Baseline: a clean one-shot run over the full corpus.  Then the
        'production' sequence: checkpoint the base run, have the naive
        sharded full re-run lose a shard worker (injected crash, no
        retry policy so it propagates like a real worker loss), and
        recover by resuming from the checkpoint with only the new file.
        """
        base, extra, full = corpus
        ckpt = tmp_path / "state.ckpt"
        baseline = schema_bytes(JxplainPipeline().run_file(full).schema)
        JxplainPipeline().run_file(base, checkpoint=ckpt)
        install_fault_plan("shard-discover:0:raise")
        try:
            with pytest.raises(InjectedFault):
                JxplainPipeline(shards=2).run_file(full)
        finally:
            clear_fault_plan()
        recovered = JxplainPipeline().run_file(
            checkpoint=ckpt, resume=True, append=[extra]
        )
        assert schema_bytes(recovered.schema) == baseline


class TestCliCheckpoint:
    def test_cli_resume_append_equals_one_shot(
        self, corpus, tmp_path, capsys
    ):
        base, extra, full = corpus
        ckpt = tmp_path / "cli.ckpt"
        assert main(
            ["discover", str(base), "--checkpoint", str(ckpt),
             "--format", "json"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["discover", "--resume", "--checkpoint", str(ckpt),
             "--append", str(extra), "--format", "json"]
        ) == 0
        resumed_text = capsys.readouterr().out
        assert main(["discover", str(full), "--format", "json"]) == 0
        assert resumed_text == capsys.readouterr().out

    def test_cli_kreduce_checkpoint(self, corpus, tmp_path, capsys):
        base, extra, full = corpus
        ckpt = tmp_path / "k.ckpt"
        assert main(
            ["discover", str(base), "--algorithm", "k-reduce",
             "--checkpoint", str(ckpt), "--format", "json"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["discover", "--resume", "--checkpoint", str(ckpt),
             "--algorithm", "k-reduce", "--append", str(extra),
             "--format", "json"]
        ) == 0
        resumed_text = capsys.readouterr().out
        assert main(
            ["discover", str(full), "--algorithm", "k-reduce",
             "--format", "json"]
        ) == 0
        assert resumed_text == capsys.readouterr().out

    def test_cli_resume_without_checkpoint_fails(self, capsys):
        assert main(["discover", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_cli_discover_without_input_fails(self, capsys):
        assert main(["discover"]) == 2
        assert "input" in capsys.readouterr().err

    def test_cli_resume_rejects_overrides(self, corpus, tmp_path, capsys):
        base, _, _ = corpus
        ckpt = tmp_path / "cli.ckpt"
        assert main(["discover", str(base), "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(
            ["discover", "--resume", "--checkpoint", str(ckpt),
             "--threshold", "0.5"]
        ) == 2

    def test_cli_checkpoint_rejects_configured_reductions(
        self, corpus, tmp_path, capsys
    ):
        base, _, _ = corpus
        assert main(
            ["discover", str(base), "--algorithm", "l-reduce",
             "--checkpoint", str(tmp_path / "l.ckpt"),
             "--threshold", "0.5"]
        ) == 2
