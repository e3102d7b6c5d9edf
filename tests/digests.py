"""Bitwise fingerprints of arrays, trace records and solve results.

Two runs that agree bit for bit have equal digests; comparing digests rather
than values catches last-bit drift that np.allclose would forgive.
"""

import dataclasses

import numpy as np


def bits(a):
    """The bytes of a as a float64 array."""
    return np.asarray(a, dtype=float).tobytes()


def record_digest(record, drop=()):
    """Every trace field but wall_ms and those in drop, floats as bytes."""
    fields = dataclasses.asdict(record)
    for name in ("wall_ms", *drop):
        del fields[name]
    return {k: bits(v) if isinstance(v, float) else v for k, v in fields.items()}


def digest(result, drop=()):
    """(status, iterations, point bytes, final-objective bits, record digests).

    The point is a SolveResult's x or a ConsensusResult's z.
    """
    point = result.z if hasattr(result, "z") else result.x
    return (result.status, result.iterations, bits(point), bits(result.final_objective),
            [record_digest(r, drop) for r in result.trace])
