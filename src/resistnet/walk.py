"""The reversible random walk driven by conductances, and its transfer operator.

Transition probabilities are p(x, y) = c(x, y) / c(x); on a truncated
graph the frontier vertices renormalize over the edges that survived the
cut, which keeps every row stochastic (a walker reaching the frontier
reflects). Simulation draws its randomness from a stateless counter-based
generator keyed by (seed, trial, step): trials are order-independent and
runs are bit-reproducible. Each trial's key is hashed once per run, and
each step costs one SplitMix round on it. Trials run in blocks of
max(2**14, V*maxdeg), every step of one block before the next, so the
per-step arrays stay cache-sized. A step compares the round's 53 random
bits with the kernel's integer thresholds, ceil(2**53 * cumulative
probability), which picks the slot the uniform bits / 2**53 picks against
the float cumulative probabilities, with no float division. Walkers are
carried as slot bases x * maxdeg. Moves are counted per slot of the
kernel's padded (V, maxdeg) arrays, so memory is O(V*maxdeg + block), and
the counts become sorted arrays of ordered-edge tallies, from which the
frequency check and the JSON report are computed without a loop per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy import EnergyVector
from .graphs import WeightedGraph, record_dict

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STEP_SALT = np.uint64(0xD1B54A32D192ED03)
_TWO53 = float(2 ** 53)


def _mix(z, scratch):
    """SplitMix64 finalizer, in place on the uint64 array z; scratch holds the shifts."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _trial_keys(seed: int, trials):
    """The per-trial key mix(trial * GOLDEN ^ seed), as a uint64 array."""
    z = np.array(trials, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _GOLDEN
    z ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    _mix(z, np.empty_like(z))
    return z


def _step_round(keys, salt, z, scratch):
    """One SplitMix round mix(key ^ salt) into z; returns z >> 11, 53 random bits."""
    np.bitwise_xor(keys, salt, out=z)
    _mix(z, scratch)
    z >>= np.uint64(11)
    return z


def counter_uniforms(seed: int, trials, step: int):
    """Uniforms in [0, 1) indexed by (seed, trial, step), order-independent.

    trials may be an int array of trial indices or a scalar; the value at
    each position depends only on the triple, never on array layout. The
    value is a key hashed from (seed, trial) alone, mix(trial * GOLDEN ^
    seed), followed by one SplitMix round that brings in the step,
    mix(key ^ step * SALT); simulate hashes each key once and runs only
    the round at every step.
    """
    keys = _trial_keys(seed, trials)
    with np.errstate(over="ignore"):
        salt = np.uint64(step) * _STEP_SALT
    return _step_round(keys, salt, np.empty_like(keys), np.empty_like(keys)) / _TWO53


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic kernel p(x, y) = c(x, y) / c(x) in padded-array form."""

    graph: WeightedGraph
    neighbors: np.ndarray      # (V, maxdeg) int, padded with -1
    probs: np.ndarray          # (V, maxdeg) float, padded with 0
    # (V, maxdeg) uint64 integer_cuts of the cumulative probs, 2**53 (never) from
    # the last real column on: 53 random bits z pick slot #{j : z >= thresholds[x, j]}
    # of row x, inside the row even if its sum is an ulp short of 1
    thresholds: np.ndarray

    def row(self, x):
        """List of (neighbor, probability) at vertex x."""
        return [(int(y), float(p))
                for y, p in zip(self.neighbors[x], self.probs[x]) if y >= 0]

    def probability(self, x, y):
        return next((p for nbr, p in self.row(x) if nbr == y), 0.0)


def kernel_from_graph(graph: WeightedGraph) -> TransitionKernel:
    """Build the kernel and check row-stochasticity and reversibility.

    An edge whose conductance is negative (or NaN) raises ValueError naming
    it: its transition probabilities would fall outside [0, 1].
    """
    ex, ey, ec = graph.edge_arrays
    negative = ~(ec >= 0)
    if negative.any():
        k = int(np.argmax(negative))
        raise ValueError(f"edge ({ex[k]}, {ey[k]}) has conductance {float(ec[k])!r}; "
                         "the walk needs conductances >= 0")
    weights = graph.vertex_weights
    if np.any(weights <= 0):
        bad = int(np.argmin(weights))
        raise ValueError(f"vertex {bad} has no edges; the walk is undefined there")
    src, dst, cond = np.r_[ex, ey], np.r_[ey, ex], np.r_[ec, ec]
    order = np.lexsort((cond, dst, src))   # each row by neighbor, then conductance
    src, dst, cond = src[order], dst[order], cond[order]
    degrees = np.bincount(src, minlength=graph.n_vertices)
    slot = np.arange(src.size) - (np.cumsum(degrees) - degrees)[src]    # rank in its row
    nbrs = np.full((graph.n_vertices, int(degrees.max())), -1, dtype=int)
    probs = np.zeros(nbrs.shape)
    nbrs[src, slot] = dst
    probs[src, slot] = cond / weights[src]
    _check_kernel(graph, nbrs, probs)
    cuts = np.cumsum(probs, axis=1)
    cuts[:, -1] = np.inf
    cuts[:, :-1][nbrs[:, 1:] < 0] = np.inf
    return TransitionKernel(graph, nbrs, probs, integer_cuts(cuts))


def integer_cuts(cuts):
    """ceil(cut * 2**53) of each cut below 1, and 2**53 for the rest, as uint64.

    For an integer z < 2**53, z / 2**53 >= cut holds exactly when z >= the
    integer cut: scaling by a power of two is exact, and a cut of 1 or more
    (+inf included) is reached by no z, as by no uniform below 1.
    """
    return np.where(cuts < 1, np.ceil(cuts * _TWO53), _TWO53).astype(np.uint64)


def _check_kernel(graph: WeightedGraph, neighbors, probs):
    """Raise ValueError unless the padded rows are stochastic and reversible.

    Reversibility is c(x) p(x, y) = c(y) p(y, x) on every edge, read at the
    first slot of y in row x and of x in row y (an edge missing from a row
    fails); rows list their neighbors in increasing order.
    """
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("transition rows failed to normalize to 1")
    n, maxdeg = neighbors.shape
    slots = np.flatnonzero(neighbors >= 0)
    keys = slots // maxdeg * n + neighbors.ravel()[slots]     # increasing
    ex, ey, _c = graph.edge_arrays
    flux = []
    for a, b in ((ex, ey), (ey, ex)):
        k = np.minimum(np.searchsorted(keys, a * n + b), len(keys) - 1)
        flux_ab = graph.vertex_weights[a] * probs.ravel()[slots[k]]
        flux.append(np.where(keys[k] == a * n + b, flux_ab, np.nan))
    bad = ~(np.abs(flux[0] - flux[1]) <= 1e-12 * np.maximum(flux[0], 1.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"detailed balance broken on edge ({ex[k]},{ey[k]})")


@dataclass(frozen=True)
class WalkStats:
    """Counts from a batch of simulated walks, reproducible from the seed."""

    seed: int
    start: int
    steps: int
    trials: int
    # (x, y, n) int arrays: each ordered edge x -> y that was traversed, sorted
    # by (x, y) with parallel edges merged, and its traversal count n
    transitions: tuple
    visit_counts: np.ndarray   # occupancy over times 1..steps

    @cached_property
    def edge_counts(self):
        """{(x, y): ordered traversal count}, in (x, y) order."""
        x, y, n = (column.tolist() for column in self.transitions)
        return dict(zip(zip(x, y), n))

    @property
    def total_transitions(self):
        return int(self.transitions[2].sum())

    def to_dict(self):
        x, y, n = (column.tolist() for column in self.transitions)
        return {
            "seed": self.seed,
            "start": self.start,
            "steps": self.steps,
            "trials": self.trials,
            "edge_counts": {f"{a}->{b}": k for a, b, k in zip(x, y, n)},
            "visit_counts": self.visit_counts.tolist(),
        }


def simulate(kernel: TransitionKernel, start: int, steps: int, trials: int,
             seed: int) -> WalkStats:
    """Run `trials` independent walks of `steps` moves from `start`."""
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must both be >= 1")
    n_vertices, maxdeg = kernel.neighbors.shape
    targets = kernel.neighbors.ravel()
    bases = targets * maxdeg         # slot -> the first slot of the vertex it moves to
    thresholds = kernel.thresholds.ravel()
    columns = [thresholds[j:] for j in range(maxdeg - 1)]    # thresholds[x, j] at x*maxdeg
    salts = np.arange(steps, dtype=np.uint64) * _STEP_SALT     # wraps modulo 2**64
    counts = np.zeros(n_vertices * maxdeg, dtype=np.int64)    # moves per slot x*maxdeg + j
    block = min(trials, max(2 ** 14, counts.size))
    buffers = (np.empty(block, dtype=np.uint64), np.empty(block, dtype=np.uint64),
               np.empty(block, dtype=bool), np.empty(block, dtype=np.int64))
    for lo in range(0, trials, block):
        keys = _trial_keys(seed, np.arange(lo, min(lo + block, trials), dtype=np.uint64))
        z, scratch, above, code = (b[:keys.size] for b in buffers)
        base = np.full(keys.size, start * maxdeg)
        for salt in salts:
            _step_round(keys, salt, z, scratch)
            np.copyto(code, base)
            for column in columns:
                np.greater_equal(z, column[base], out=above)
                code += above
            counts += np.bincount(code, minlength=counts.size)
            base = bases[code]
    transitions = _transitions(targets, counts, maxdeg)
    # a visit at time t >= 1 is an arrival; float sums of integers below 2**53 are exact
    visits = np.bincount(transitions[1], weights=transitions[2], minlength=n_vertices)
    return WalkStats(seed, start, steps, trials, transitions, visits.astype(np.int64))


def _transitions(targets, counts, maxdeg):
    """The (x, y, n) tallies of the moves per slot x*maxdeg + j, sorted by (x, y).

    A row lists its neighbours in increasing order, so the nonzero slots
    are sorted by (x, y) already, and parallel edges are adjacent runs.
    """
    slots = np.flatnonzero(counts)
    x, y = slots // maxdeg, targets[slots]
    first = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1])])
    return x[first], y[first], np.add.reduceat(counts[slots], first)


@dataclass(frozen=True)
class FrequencyCheck:
    """Empirical transition frequencies against kernel probabilities."""

    rows: tuple          # (x, y, exact_p, empirical_p, n_exits, z_score)
    sigma_band: float
    min_exits: int

    @property
    def all_within_band(self):
        return all(r[5] <= self.sigma_band for r in self.rows)


def frequency_check(stats: WalkStats, kernel: TransitionKernel,
                    sigma_band: float = 4.0, min_exits: int = 1000) -> FrequencyCheck:
    """Compare observed transition frequencies with exact probabilities.

    Vertices with fewer than min_exits observed exits are skipped; each
    remaining ordered edge gets a binomial z-score, and the check passes
    when every score is within the sigma band. Deterministic transitions
    (p = 0 or 1) score 0 when matched exactly and infinity otherwise.
    """
    x, y, n = stats.transitions
    exits = np.zeros(len(kernel.neighbors), dtype=np.int64)
    np.add.at(exits, x, n)
    tails = np.flatnonzero((exits > 0) & (exits >= min_exits))
    neighbors = kernel.neighbors[tails]
    real = neighbors >= 0      # each row's neighbours, in row order
    row_x = np.broadcast_to(tails[:, None], real.shape)[real]
    row_y, p = neighbors[real], kernel.probs[tails][real]
    n_exits = exits[row_x]
    # moves along row_x -> row_y, looked up in the (x, y)-sorted tallies
    keys, wanted = x * len(exits) + y, row_x * len(exits) + row_y
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    emp = np.where(keys[at] == wanted, n[at], 0) / n_exits
    var = p * (1.0 - p) / n_exits
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(var == 0, np.where(emp == p, 0.0, np.inf), np.abs(emp - p) / np.sqrt(var))
    rows = zip(*(column.tolist() for column in (row_x, row_y, p, emp, n_exits, z)))
    return FrequencyCheck(tuple(rows), sigma_band, min_exits)


def apply_transfer(kernel: TransitionKernel, f: EnergyVector) -> EnergyVector:
    """(T f)(x) = sum_y p(x, y) f(y), with frontier rows renormalized."""
    padded = np.where(kernel.neighbors >= 0, kernel.neighbors, 0)
    gathered = f.values[padded]
    out = np.sum(kernel.probs * gathered, axis=1)
    return EnergyVector(kernel.graph, out)


@dataclass(frozen=True)
class TransferIterateResult:
    """Iteration record for repeated application of the transfer operator."""

    iterate: EnergyVector
    iterations: int
    converged: bool
    last_delta: float             # sup-norm change at the final step
    monotone_interior: bool       # interior values never decreased (to 1e-9)
    min_interior_increment: float
    harmonicity_residual: float   # sup |Lap T^k f| over interior vertices

    def to_dict(self):
        return record_dict(self, ("iterate",))


def transfer_iterate(kernel: TransitionKernel, f: EnergyVector,
                     k_max: int = 10000, tol: float = 1e-10) -> TransferIterateResult:
    """Iterate T until the sup-norm change drops below tol (or k_max).

    The monotonicity record tracks the minimum interior increment across
    all iterations; for defect eigenvectors the iterates increase
    pointwise on the interior, up to rounding.
    """
    from .energy import apply_laplacian

    interior = kernel.graph.interior_mask
    scale = float(np.max(np.abs(f.values))) + 1.0
    current = f
    delta = float("inf")
    min_increment = float("inf")
    k = 0
    while k < k_max:
        nxt = apply_transfer(kernel, current)
        delta = float(np.max(np.abs(nxt.values - current.values)))
        inc = float(np.min((nxt.values - current.values)[interior]))
        min_increment = min(min_increment, inc)
        current = nxt
        k += 1
        if delta < tol:
            break
    lap = apply_laplacian(current).values
    residual = float(np.max(np.abs(lap[interior])))
    return TransferIterateResult(
        current, k, delta < tol, delta,
        min_increment >= -1e-9 * scale, min_increment, residual)
