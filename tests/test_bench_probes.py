"""Every per-layer probe of the benchmark names a function that exists.

The benchmark's tracer reports a probe whose target is gone as missing
instead of failing, so a rename would silently drop its metrics.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

sys.path.insert(0, str(BENCH_DIR))
try:
    import tracing
finally:
    sys.path.remove(str(BENCH_DIR))


@pytest.mark.parametrize("probe", sorted(tracing.PROBES))
def test_probe_target_resolves(probe):
    module_name, path = tracing.PROBES[probe]
    _, _, target = tracing._resolve(module_name, path)
    assert callable(target)
