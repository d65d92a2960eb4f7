"""tools/bit_dump.py, the bit-identity check of a change against its parent."""

import importlib.util
import time
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bit_dump.py"
_SPEC = importlib.util.spec_from_file_location("bit_dump", _PATH)
bit_dump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bit_dump)


def test_a_reduced_dump_is_deterministic_and_quick():
    # Every group starts from cleared caches, so a second dump in the same process,
    # which finds the package warm, must hash the same bits.
    start = time.perf_counter()
    first = bit_dump.dump(bit_dump.REDUCED)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert list(first) == ["table.hsolve", "table.stable", "table.gamma", "table.gengamma",
                           "table.truncstable", "vsampler", "chains", "eppf", "moment"]
    assert all(len(digest) == 64 for digest in first.values())
    assert bit_dump.dump(bit_dump.REDUCED) == first
