"""Shared state containers, seeded RNG plumbing, and failure types."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A run is declared divergent once any coordinate magnitude passes this.
# Gain/step-size combinations outside the stability region blow up
# exponentially, so the exact cutoff is uncritical; it only has to trip
# before floats overflow.
POSITION_LIMIT = 1.0e6


class DivergenceError(RuntimeError):
    """A simulation left the sane-magnitude envelope (unstable parameters).

    ``partial`` lists the traces the run had made, in run order, so callers
    can still flush truncated output files: empty from ``check_finite``, the step
    functions and a sweep; ``[trace]`` from ``run_formation`` and a seeded
    ``run_estimation``; every chain's trace from ``chain_traces`` and from
    ``run_estimation(batch=...)``; the chain traces, then the formation trace, from
    ``run_pipeline``.
    """

    def __init__(self, message):
        super().__init__(message)
        self.partial = []


class ParameterError(ValueError):
    """A parameter outside its domain: ``name`` is the parameter, named as the config
    field that sets it, and ``rule`` what it must be, quoting the value refused."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name}: {rule}")
        self.name, self.rule = name, rule


def require(condition: bool, name: str, rule: str) -> None:
    """The one form of a parameter rule: ``ParameterError(name, rule)`` unless ``condition``."""
    if not condition:
        raise ParameterError(name, rule)


# Longest repr an error message quotes.
QUOTE_MAX = 200


def quoted(value) -> str:
    """``repr(value)`` if at most ``QUOTE_MAX`` characters, else its type.

    A YAML alias repeats its value at each use, so ``repr`` runs only once
    a walk finds at most ``QUOTE_MAX`` nodes, each printing at least one
    character (a list inside itself as ``[...]``).
    """
    nodes, stack = 0, [(value, ())]
    while stack and nodes <= QUOTE_MAX:
        item, above = stack.pop()
        nodes += 1
        if isinstance(item, (dict, list)) and id(item) not in above:
            children = [*item, *item.values()] if isinstance(item, dict) else item
            stack.extend((child, (*above, id(item))) for child in children)
    try:
        if nodes <= QUOTE_MAX and len(text := repr(value)) <= QUOTE_MAX:
            return text
    except ValueError:  # an int past the 4 300-digit limit of str(), as YAML hex gives
        pass
    return f"<{type(value).__name__} too long to print>"


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed on (seed, stream).

    Philox4x64-10 keyed with the two 64-bit words (seed, stream); doubles
    come from the top 53 bits of each 64-bit output.  numpy adds one to its
    zero counter before each block, so the first block is at counter
    (1, 0, 0, 0); any Philox4x64-10 implementation started there
    reproduces the same placements bit for bit.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_box(rng: np.random.Generator, count: int, half_width: float) -> np.ndarray:
    """``count`` planar points uniform in [-half_width, half_width)^2."""
    return half_width * (2.0 * rng.random((count, 2)) - 1.0)


# Up to this many values, one ``abs`` temporary costs less than a second
# reduction; a larger temporary can cost an mmap and fresh page faults per
# call (n = 12 000 ring: 187.5 KiB against glibc's 128 KiB mmap threshold).
ABS_CHECK_MAX_SIZE = 8192


def check_finite(values: np.ndarray, step: int, label: str) -> None:
    """Abort loudly on non-finite or absurdly large state values.

    The common case is decided without a scan for non-finite values: NaN
    fails every comparison, and inf or -inf fails the limit.  A large
    array is checked by its maximum and minimum, without a temporary; a
    small one by its peak magnitude.  Only a failing array is scanned
    again, so a non-finite value is named before a large one.
    """
    if values.size > ABS_CHECK_MAX_SIZE:
        if (np.maximum.reduce(values, None) <= POSITION_LIMIT
                and np.minimum.reduce(values, None) >= -POSITION_LIMIT):
            return
    elif not values.size or np.abs(values).max() <= POSITION_LIMIT:
        return
    if not np.isfinite(values).all():
        raise DivergenceError(f"{label} contains non-finite values at step {step}")
    peak = np.abs(values).max()
    raise DivergenceError(
        f"{label} diverged at step {step}: max magnitude {float(peak):.3e} "
        f"exceeds {POSITION_LIMIT:.0e}"
    )


def midpoint_law(q: np.ndarray, vlag: np.ndarray, alpha: float,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """New velocities of rows 1..-2 into ``out``: chase the neighbours'
    midpoint, average their (possibly lagged) velocities; returns ``out``.

    Rows 0 and -1 of ``q`` and ``vlag`` are only read, as the outer
    neighbours of rows 1 and -2: the wrapped ring ends, or a chain's anchor
    and virtual robot.  ``out`` and ``scratch`` are arrays shaped like
    ``q[1:-1]``.  The operations run in the order of the expression
    ``0.5 * alpha * (q[2:] + q[:-2] - 2.0 * q[1:-1]) + 0.5 * (vlag[2:] +
    vlag[:-2])``, so they give its bits.
    """
    np.add(q[2:], q[:-2], out=out)
    np.multiply(q[1:-1], 2.0, out=scratch)
    out -= scratch
    out *= 0.5 * alpha
    np.add(vlag[2:], vlag[:-2], out=scratch)
    scratch *= 0.5
    out += scratch
    return out


@dataclass
class SwarmState:
    """Positions and velocities of every robot at one synchronous step.

    ``velocities_prev`` is the one-step-old layer needed by the lagged
    (sigma = 2, S2) update; it is all zeros at step 0.  An estimator chain
    state (anchor in row 0, then the n' robots) also carries
    ``excitation``, the virtual robot's velocity at the current step; its
    position never leaves the origin.
    """

    positions: np.ndarray
    velocities: np.ndarray
    velocities_prev: np.ndarray = field(default=None)  # type: ignore[assignment]
    step: int = 0
    excitation: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.velocities_prev is None:
            self.velocities_prev = np.zeros_like(self.velocities)
        else:
            self.velocities_prev = np.asarray(self.velocities_prev, dtype=float)
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have matching shape")

    @property
    def n_prime(self) -> int:
        """Chain order: the rows after the anchor (row 0) of a chain state."""
        return self.positions.shape[0] - 1

    @classmethod
    def at_rest(cls, positions: np.ndarray) -> "SwarmState":
        positions = np.asarray(positions, dtype=float)
        return cls(positions=positions, velocities=np.zeros_like(positions))
