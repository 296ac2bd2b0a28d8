"""``VReg`` hashing: cached at construction, never carried across
processes.

A VReg's hash covers its ``str`` name, and ``str`` hashes differ between
processes (``PYTHONHASHSEED``).  The store's front-end namespace and the
suite workers ship VRegs between processes, so the cached hash must be
recomputed on load, not restored.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.ir.values import VKind, VReg

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: run in a child under a fixed PYTHONHASHSEED: pickle VRegs inside a dict
#: and a set, and report the hashes that process gave them
_CHILD = """
import pickle, sys
from repro.ir.values import VKind, VReg
vregs = [VReg("x", VKind.LOCAL), VReg("n", VKind.PARAM, 1),
         VReg("g", VKind.GLOBAL), VReg("t7", VKind.TEMP)]
payload = {"map": {v: i for i, v in enumerate(vregs)}, "set": set(vregs),
           "hashes": [hash(v) for v in vregs]}
sys.stdout.buffer.write(pickle.dumps(payload))
"""


def _fresh():
    return [VReg("x", VKind.LOCAL), VReg("n", VKind.PARAM, 1),
            VReg("g", VKind.GLOBAL), VReg("t7", VKind.TEMP)]


def _pickled_in_child(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT)] + [p for p in
                           env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = seed
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


def test_hash_is_the_structural_hash():
    for v in _fresh():
        assert hash(v) == hash((v.name, v.kind, v.index))
        assert v == VReg(v.name, v.kind, v.index)
    assert VReg("x", VKind.LOCAL) != VReg("x", VKind.GLOBAL)
    assert VReg("n", VKind.PARAM, 0) != VReg("n", VKind.PARAM, 1)


def test_vregs_pickled_under_another_hash_seed_are_found_by_fresh_keys():
    seeds = ("1", "2")
    children = [_pickled_in_child(seed) for seed in seeds]
    # the seeds really do give different hashes, so a restored cached
    # hash would put the keys in the wrong buckets
    assert children[0]["hashes"] != children[1]["hashes"]
    for payload in children:
        for i, v in enumerate(_fresh()):
            assert payload["map"][v] == i
            assert v in payload["set"]
        restored = list(payload["map"])
        assert [hash(v) for v in restored] == [hash(v) for v in _fresh()]


def test_pickle_carries_only_the_fields():
    v = VReg("n", VKind.PARAM, 1)
    assert v.__reduce__() == (VReg, ("n", VKind.PARAM, 1))
    back = pickle.loads(pickle.dumps(v))
    assert back == v and hash(back) == hash(v)


def test_copy_and_replace_keep_the_hash_consistent():
    v = VReg("x", VKind.LOCAL)
    for c in (copy.copy(v), copy.deepcopy(v), copy.deepcopy({v: 1}).popitem()[0]):
        assert c == v and hash(c) == hash(v)
    renamed = dataclasses.replace(v, name="y")
    assert hash(renamed) == hash(("y", VKind.LOCAL, 0))
    assert renamed == VReg("y", VKind.LOCAL)
    assert {renamed: 1}[VReg("y", VKind.LOCAL)] == 1
