"""The recorders' command line (golden.main): without --check it writes the
record; with --check it writes nothing, prints each record's drift and
exits 1 only on an entry beyond the tolerance."""

import json

import golden

RECORDED = {"logs": {"a": [{"loss": 1.0, "step": 0}, {"loss": 2.0, "step": 1}]},
            "report_rows": [{"kl": 1e-16}]}


def _recorded(tmp_path):
    path = tmp_path / "golden_x.json"
    path.write_text(json.dumps(RECORDED, indent=1, sort_keys=True) + "\n")
    return path, path.read_text()


def test_without_check_writes_the_record(tmp_path):
    path = tmp_path / "golden_x.json"
    assert golden.main(path, lambda: RECORDED, []) == 0
    assert json.loads(path.read_text()) == RECORDED


def test_check_prints_each_records_drift_and_writes_nothing(tmp_path, capsys):
    path, before = _recorded(tmp_path)
    run = {"logs": {"a": [{"loss": 1.0, "step": 0}, {"loss": 2.0 * (1 + 1e-12), "step": 1}]},
           "report_rows": [{"kl": 3e-16}]}
    assert golden.main(path, lambda: run, ["--check"]) == 0
    assert path.read_text() == before
    out = capsys.readouterr().out.splitlines()
    # the near-zero KL term moves by 2e-16 absolute but adds no relative move
    assert out[0].startswith("logs.a: 1 of 2 floats moved, largest relative 1e-12")
    assert out[1] == ("report_rows: 1 of 1 floats moved, largest relative 0 "
                      "(values above 1e-12), absolute 2e-16")


def test_check_fails_beyond_the_tolerance(tmp_path, capsys):
    path, before = _recorded(tmp_path)
    run = {"logs": {"a": [{"loss": 1.0, "step": 0}, {"loss": 2.1, "step": 1}]},
           "report_rows": [{"kl": 1e-16}]}
    assert golden.main(path, lambda: run, ["--check"]) == 1
    assert path.read_text() == before
    assert "beyond tolerance: golden_x.logs.a[1].loss: recorded 2.0, got 2.1" in \
        capsys.readouterr().out
