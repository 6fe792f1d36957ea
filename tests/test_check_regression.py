"""The bench-regression gate's comparison rules (benchmarks/check_regression.py)."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def artefact(*rows):
    return {"bench": "fabric", "rows": list(rows)}


def row(edges, **metrics):
    return {"config": "leaf-spine", "edges": edges, "pps": 1000.0, **metrics}


def failures(baseline, current):
    return gate.compare("fabric", baseline, current, threshold=0.25)[0]


def test_share_keys_are_gated_absolutely():
    baseline = artefact(row(2, ss2_compiled_share=0.99))
    assert failures(baseline, artefact(row(2, ss2_compiled_share=0.95))) == []
    (failure,) = failures(baseline, artefact(row(2, ss2_compiled_share=0.5)))
    assert "ss2_compiled_share fell" in failure


def test_no_data_against_a_numeric_baseline_fails():
    baseline = artefact(row(2, hit_rate=0.99))
    (failure,) = failures(baseline, artefact(row(2, hit_rate=None)))
    assert "hit_rate has no data" in failure


def test_a_gated_key_missing_from_a_present_row_fails():
    baseline = artefact(row(2, hit_rate=0.99))
    (failure,) = failures(baseline, artefact(row(2)))
    assert "hit_rate missing" in failure


def test_rows_absent_from_the_current_artefact_are_skipped():
    # Full-mode runs are checked against smoke baselines on common rows.
    baseline = artefact(row(2, hit_rate=0.99), row(4, hit_rate=0.99))
    assert failures(baseline, artefact(row(2, hit_rate=0.99))) == []


def test_ungated_keys_may_lack_data():
    baseline = artefact(row(2, interp_hit_rate=0.9))
    assert failures(baseline, artefact(row(2, interp_hit_rate=None))) == []
