#!/usr/bin/env python3
"""Record the SHA-256 of every file that run_benchmark.py writes, with the host it ran on.

Runs ``scripts/run_benchmark.py --epochs 2`` for each seed of SEEDS into a
temporary directory and writes tests/output_digests.json: for the host
fingerprint of this machine (numpy version, BLAS name and version, OpenBLAS
core name, machine) it maps each seed to {file: SHA-256}. Entries of other
hosts are kept. Float32 GEMM kernels differ between CPUs, so a set of digests
holds for one fingerprint only. tests/test_output_digests.py reruns the seeds
and names every file whose bytes moved.

Run it after a change that moves output bytes on purpose:
    python3 scripts/output_digests.py
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import battfault
from battfault import dataio

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = ROOT / "tests" / "output_digests.json"
SEEDS = (7, 1357)
EPOCHS = 2
# the core-name call of numpy's own OpenBLAS build and of a system one
CORENAME_CALLS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def _openblas_corename():
    """The core OpenBLAS picked for this CPU, or None where it cannot be asked."""
    corename = battfault.openblas_call(CORENAME_CALLS, (), ctypes.c_char_p)
    return None if corename is None else corename().decode()


def host_fingerprint() -> dict:
    """What the output bytes depend on besides the code and the seed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "openblas_core": _openblas_corename(), "machine": platform.machine()}


def run_digests(out_dir) -> dict:
    """{seed: {path: SHA-256}} of a run_benchmark.py run into out_dir/<seed> for each seed of SEEDS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    for seed in SEEDS:
        out = Path(out_dir) / str(seed)
        subprocess.run([sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), "--epochs",
                        str(EPOCHS), "--seed", str(seed), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        digests[str(seed)] = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                              for path in sorted(out.rglob("*")) if path.is_file()}
    return digests


def read_hosts() -> list:
    """The recorded [{"host": fingerprint, "seeds": {seed: digests}}, ...]; [] with no file."""
    if not DIGEST_FILE.exists():
        return []
    return dataio.read_document(DIGEST_FILE, "digest file", lambda doc: doc["hosts"])


def main():
    host = host_fingerprint()
    with tempfile.TemporaryDirectory() as tmp:
        seeds = run_digests(tmp)
    hosts = [entry for entry in read_hosts() if entry["host"] != host]
    hosts.append({"host": host, "seeds": seeds})
    dataio.write_text(DIGEST_FILE, dataio.json_text({"epochs": EPOCHS, "hosts": hosts}))
    print(f"wrote digests of {sum(map(len, seeds.values()))} files for {host} to {DIGEST_FILE}")


if __name__ == "__main__":
    main()
