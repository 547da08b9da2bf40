"""Every file that scripts/run_benchmark.py writes keeps the bytes recorded in output_digests.json.

test_10 compares two runs of the same code; this test compares the code with
the bytes it wrote when the digests were recorded. A change that moves output
bytes on purpose reruns ``python3 scripts/output_digests.py`` and says which
files moved and why. Float32 GEMM kernels differ between CPUs, so a set of
digests holds for the host fingerprint it was recorded on; on a host with no
entry the test skips and names the fingerprint, so it never passes there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"


@pytest.fixture
def digests(monkeypatch):
    """scripts/output_digests.py as a module, loaded without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_outputs_keep_their_digests(digests, tmp_path):
    host = digests.host_fingerprint()
    recorded = next((entry["seeds"] for entry in digests.read_hosts() if entry["host"] == host), None)
    if recorded is None:
        pytest.skip(f"no output digests recorded for host {host}; "
                    f"run scripts/output_digests.py on it to record them")
    written = digests.run_digests(tmp_path)
    assert written.keys() == recorded.keys()
    moved = [f"seed {seed}: {name}" for seed, files in recorded.items()
             for name in sorted(files.keys() | written[seed].keys())
             if files.get(name) != written[seed].get(name)]
    assert not moved, "output files moved: " + ", ".join(moved)
