"""The perf-ledger seam gate: loud about a lost seam, quiet otherwise."""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from check_ledger import (  # noqa: E402
    EXPERT_CALLS,
    MEMO_HIT_SHARE,
    ledger_problems,
    main,
)


def run(workload, trace, calls=12, missing=()):
    """One ledger run, reduced to the fields the gate reads."""
    per_layer = {
        EXPERT_CALLS: {"value": calls, "unit": "count", "better": "lower"},
        MEMO_HIT_SHARE: {"value": 0.799, "unit": "share", "better": "higher"},
    }
    return {
        "workload": workload,
        "trace": trace,
        "per_layer": per_layer if trace else None,
        "missing_seams": list(missing),
    }


SOUND = {
    "runs": [
        run("decode_hot", 0),
        run("decode_hot", 1),
        run("prefill_long", 0),
        run("prefill_long", 1),
    ]
}


def test_sound_ledger_passes(tmp_path):
    assert ledger_problems(SOUND) == []
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(SOUND))
    assert main([str(path)]) == 0


def test_missing_seam_fails_on_untraced_and_traced_runs(tmp_path, capsys):
    seam = "repro.models.model.ReferenceMoEModel.expert_forward"
    ledger = copy.deepcopy(SOUND)
    ledger["runs"][2]["missing_seams"] = [seam]
    ledger["runs"][3]["missing_seams"] = [seam]
    ledger["runs"][3]["per_layer"][EXPERT_CALLS]["value"] = None
    problems = ledger_problems(ledger)
    assert len(problems) == 3
    assert all("prefill_long" in line for line in problems)
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    assert main([str(path)]) == 1
    assert seam in capsys.readouterr().err


def test_zero_expert_calls_on_a_traced_run_fails():
    ledger = copy.deepcopy(SOUND)
    ledger["runs"][1]["per_layer"][EXPERT_CALLS]["value"] = 0
    (problem,) = ledger_problems(ledger)
    assert "decode_hot (trace 1)" in problem and EXPERT_CALLS in problem


def test_decode_hot_memo_hit_share_below_the_floor_fails():
    """0.175 is what the id-keyed memo read at smoke size. The floor
    binds the traced ``decode_hot`` run only: a cold prefill never
    hits."""
    ledger = copy.deepcopy(SOUND)
    ledger["runs"][1]["per_layer"][MEMO_HIT_SHARE]["value"] = 0.175
    ledger["runs"][3]["per_layer"][MEMO_HIT_SHARE]["value"] = 0.0
    (problem,) = ledger_problems(ledger)
    assert "decode_hot (trace 1)" in problem and MEMO_HIT_SHARE in problem
