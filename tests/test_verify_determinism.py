"""The reduced search is a function of the program alone.

Exploration counts are compared across processes (benchmark records,
CI logs, the parent/child runs of a before/after measurement), so the
search order must not depend on anything per-process — in particular
not on ``PYTHONHASHSEED``, which salts the builtin ``hash`` of every
string.  The subtree summaries the reduced explorer keeps hold string
footprint tokens; walking them in set order made the paper-scale bridge
verdict take 645–648 runs depending on the seed.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.problems.single_lane_bridge import bridge_program
from repro.verify import explore

_VERDICT = """
import json
from repro.problems.single_lane_bridge import bridge_program
from repro.verify import explore
res = explore(bridge_program(), reduce="all")
st = res.stats
print(json.dumps({
    "runs": res.runs, "decisions": res.decisions,
    "pruned_runs": res.pruned_runs, "sleep_prunes": st.sleep_prunes,
    "fingerprint_states": st.fingerprint_states,
    "terminals": sorted(repr(k) for k in res.terminals)}))
"""


def _verdict_in_process(hash_seed: str) -> dict:
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": pkg_root + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    out = subprocess.check_output([sys.executable, "-c", _VERDICT], env=env)
    return json.loads(out)


def test_bridge_verdict_independent_of_hash_seed():
    # seeds 0 and 3 gave 648 and 645 runs when the summaries were sets
    a = _verdict_in_process("0")
    b = _verdict_in_process("3")
    assert a == b
    assert len(a["terminals"]) == 14


def test_bridge_verdict_counts_pinned():
    """The counts the insertion-ordered search produces on the 3-car
    bridge (the ``explore`` benchmark's verdict)."""
    res = explore(bridge_program(), reduce="all")
    st = res.stats
    assert res.complete and len(res.terminals) == 14
    assert (res.runs, res.decisions, res.pruned_runs) == (646, 8875, 626)
    assert (st.sleep_prunes, st.fingerprint_states) == (509, 1317)
