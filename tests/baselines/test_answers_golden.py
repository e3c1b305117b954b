"""Golden answers of the five Table 5 baselines.

Every baseline answers the 13 workload texts plus five texts the
behavioural tests use; the 90 answers (SQL, support flag, caveat, note)
are compared with ``data/baseline_answers.json``, recorded on the
``small_warehouse`` (seed 42, scale 0.25).  A change to how the FK
graph is walked, how cycles are detected or how BANKS expands its data
graph shows up here as a changed answer.

Re-record only for an intended change of answers::

    PYTHONPATH=src python tests/baselines/test_answers_golden.py --record
"""

import json
import sys
from pathlib import Path

from repro.baselines.capabilities import default_systems
from repro.experiments.workload import WORKLOAD

GOLDEN = Path(__file__).parent / "data" / "baseline_answers.json"

#: texts from the behavioural tests that reach the join tree, the
#: cycle test and BANKS' search with more than one keyword
EXTRA_TEXTS = (
    "sara zurich",
    "Zurich",
    "parties",
    "individuals addresses",
    "sara individuals",
)


def sweep(warehouse) -> list:
    """Every system's answer to every text, as JSON-ready dicts."""
    texts = [query.text for query in WORKLOAD] + list(EXTRA_TEXTS)
    answers = []
    for system in default_systems(warehouse):
        for text in texts:
            answer = system.answer(text)
            answers.append({
                "system": answer.system,
                "text": text,
                "supported": answer.supported,
                "caveat": answer.caveat,
                "note": answer.note,
                "sqls": list(answer.sqls),
            })
    return answers


def test_baseline_answers_match_golden(small_warehouse):
    expected = json.loads(GOLDEN.read_text())
    actual = sweep(small_warehouse)
    assert len(actual) == 90
    changed = [
        (got["system"], got["text"])
        for got, want in zip(actual, expected)
        if got != want
    ]
    assert not changed, f"baseline answers changed: {changed}"
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    from repro.warehouse.minibank import build_minibank

    answers = sweep(build_minibank(seed=42, scale=0.25))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(  # one answer per line
        "[\n" + ",\n".join(json.dumps(answer) for answer in answers) + "\n]\n"
    )
