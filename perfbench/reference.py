"""The reference kernel: fixed work timed beside the benchmark's operations.

It is benchmark code, the same on every commit. Dividing an operation's
time by the reference times around it cancels the host's speed of the
moment, which on a shared VM swings by half for minutes at a time, and
keeps the program's own cost. The mix follows mubkit's: small Hermitian
eigensolves, matrix products, interpreter work and JSON.

Run as a script it does the same work in a fresh interpreter, which is
how the CLI workload's operations run::

    python3 perfbench/reference.py
"""
from __future__ import annotations

import json

import numpy as np

# At dimension 32 the Hermitian solver on a dense random matrix reaches
# threaded BLAS calls, which pay for waking OpenBLAS's threads: from
# nothing to milliseconds, depending on what the program ran just before
# (measured on a 2-core VM: 0.2 to 9 ms per solve). The reference would
# then track the program's last calls instead of the host. At 24 its time
# is steady.
DIM, ROUNDS = 24, 50
_rng = np.random.default_rng(0)
_m = _rng.standard_normal((DIM, DIM)) + 1j * _rng.standard_normal((DIM, DIM))
MATRIX = _m + _m.conj().T


def kernel() -> float:
    acc = 0.0
    for _ in range(ROUNDS):
        w, v = np.linalg.eigh(MATRIX)
        acc += float(np.abs((v * w) @ v.conj().T - MATRIX).max())
        table = {(i, j): i * j for i in range(DIM) for j in range(DIM)}
        acc += sum(table.values()) * 1e-12
    text = json.dumps(MATRIX.real.tolist(), indent=2)
    return acc + len(json.loads(text))


if __name__ == "__main__":
    kernel()
