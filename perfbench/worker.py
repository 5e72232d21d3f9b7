"""Library worker for lib-evolve-dense: one process, one op at a time.

Usage: python3 worker.py L  (with the checkout's src on PYTHONPATH)

Prints one ready line once hyperwalk is imported and the engine is built.
The first request line {"re": ..., "im": ...} carries the product-state
factors; the worker builds their normalized sum once and answers {"psi": true}.
Then, for each request line {"t": t}, it times distribution_at on that state
and answers one header line {"wall_s": s, "nbytes": n} followed by the
float64 probabilities as raw bytes (or {"wall_s": s, "error": text} if the
call raised).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from inputs import superposition


def main() -> int:
    from hyperwalk import EvolutionEngine, Level, StateVector, distribution_at

    level = Level(int(sys.argv[1]))
    engine = EvolutionEngine(level)
    out = sys.stdout.buffer
    out.write(b'{"ready": true}\n')
    out.flush()
    first = sys.stdin.buffer.readline()
    if not first:  # closed after start-up: a set-up measurement
        return 0
    states = json.loads(first)
    psi = StateVector(level, superposition(np.array(states["re"]) + 1j * np.array(states["im"])))
    out.write(b'{"psi": true}\n')
    out.flush()
    for line in sys.stdin.buffer:
        t0 = time.perf_counter()
        try:
            probs = distribution_at(engine, psi, json.loads(line)["t"]).probs
        except Exception as exc:  # the parent counts the op as failed
            reply = {"wall_s": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
            out.write(json.dumps(reply).encode() + b"\n")
            out.flush()
            continue
        wall = time.perf_counter() - t0
        out.write(json.dumps({"wall_s": wall, "nbytes": probs.nbytes}).encode() + b"\n")
        out.write(memoryview(probs).cast("B"))
        out.flush()
        del probs
    return 0


if __name__ == "__main__":
    sys.exit(main())
