"""Statistics-drift guard: a fixed scenario must reproduce golden statistics.

The checked-in golden file (``tests/golden/throughput_smoke.json``) holds, for
a small prewarmed facesim run of every evaluated design (plus c3d with the
broadcast filter), the integer counters and a sha256 of the complete
``SimulationStats.to_json_dict()``.  Any change to the simulation model --
caches, protocols, placement, trace generation, engine -- that alters
behaviour shows up as a drift here and must be accompanied by a deliberate
regeneration of the golden file (``python tests/golden/regen.py``).  The
digest covers the floats too (latency sums and maxima, per-core finish
times), so a latency change that moves no counter still fails.
Performance-only changes must pass untouched; CI runs this as part of the
tier-1 suite.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "throughput_smoke.json"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_pins_every_case():
    golden = load_golden()
    assert golden["cases"].keys() == regen.CASES.keys()
    for name, entry in golden["cases"].items():
        assert entry["config"] == regen.CASES[name]


@pytest.mark.parametrize("case", list(regen.CASES))
def test_statistics_match_golden(case):
    golden = load_golden()
    expected = golden["cases"][case]
    result = regen.run_case(
        expected["config"], scale=golden["scale"],
        accesses=golden["accesses_per_core"], workload=golden["workload"],
    )
    actual = regen.summarise(result)

    want, got = expected["counters"], actual["counters"]
    drift = {k: (want[k], got[k]) for k in want if want[k] != got[k]}
    assert not drift, f"statistics drift vs golden for {case}: {drift}"
    assert actual["stats_sha256"] == expected["stats_sha256"], (
        f"{case}: counters match but the full statistics (latencies, finish "
        f"times) drifted from the golden digest"
    )
