"""Site generators: Poisson processes, jittered lattices, explicit point sets.

All sampling is driven by numpy Generator objects keyed by (seed, trial) so
that parallel trials reproduce bitwise regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, lru_cache

import numpy as np
from scipy.special import gammaln

COUNT_CAP = int(1e7)   # refuse instances with more expected points than this


def unit_ball_volume(d: int) -> float:
    """Volume of the unit d-ball, pi^(d/2) / Gamma(d/2 + 1)."""
    return float(np.exp(d / 2.0 * np.log(np.pi) - gammaln(d / 2.0 + 1.0)))


class _ByValue:
    """Equality and hashing over a dataclass's fields, arrays by value."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple((v.shape, tuple(v.ravel().tolist()))
                     if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, slots=True, eq=False)
class Window(_ByValue):
    """Sampling region: an axis-aligned box or a ball.

    For a box, `extent` is the half-extent in every axis; for a ball it is
    the radius.
    """

    kind: str
    center: np.ndarray
    extent: float

    def __post_init__(self):
        if self.kind not in ("box", "ball"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.extent <= 0.0:
            raise ValueError("window extent must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def d(self) -> int:
        return self.center.shape[0]

    def contains(self, x, shrink=0.0):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rel = x - self.center
        if self.kind == "box":
            return np.all(np.abs(rel) <= self.extent - shrink, axis=1)
        return np.einsum("ij,ij->i", rel, rel) <= (self.extent - shrink) ** 2


@cache
def unit_box_window(d: int) -> Window:
    """The box [0, 1]^d, one shared Window per d; its center is read-only."""
    w = Window("box", np.full(d, 0.5), 0.5)
    w.center.flags.writeable = False
    return w


def window_volume(w: Window) -> float:
    """Closed-form volume of a window."""
    if w.kind == "box":
        return float((2.0 * w.extent) ** w.d)
    return unit_ball_volume(w.d) * w.extent ** w.d


@dataclass(frozen=True, slots=True, eq=False)
class ProcessSpec(_ByValue):
    """What to sample: poisson(rho), lattice(spacing, jitter), or explicit points."""

    kind: str
    rho: float = 0.0
    spacing: float = 0.0
    jitter: float | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "poisson":
            if self.rho <= 0.0:
                raise ValueError("intensity must be positive")
        elif self.kind == "lattice":
            if self.spacing <= 0.0:
                raise ValueError("spacing must be positive")
            jitter = self.spacing * 1e-3 if self.jitter is None else self.jitter
            if not (0.0 <= jitter < self.spacing / 2.0):
                raise ValueError("jitter must lie in [0, spacing/2)")
            object.__setattr__(self, "jitter", jitter)
        elif self.kind == "explicit":
            if self.points is None:
                raise ValueError("explicit spec needs points")
            object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        else:
            raise ValueError(f"unknown process kind {self.kind!r}")


@lru_cache(maxsize=None, typed=True)
def poisson(rho: float) -> ProcessSpec:
    """One shared spec per intensity; typed, so 1000 and 1000.0 stay apart
    in reports."""
    return ProcessSpec("poisson", rho=rho)


def lattice(spacing: float, jitter: float | None = None) -> ProcessSpec:
    return ProcessSpec("lattice", spacing=spacing, jitter=jitter)


def explicit(points) -> ProcessSpec:
    return ProcessSpec("explicit", points=points)


def _uniform_in_window(w: Window, n: int, rng) -> np.ndarray:
    if w.kind == "box":
        return w.center + w.extent * rng.uniform(-1.0, 1.0, size=(n, w.d))
    # rejection from the bounding box; acceptance rate nu_d / 2^d
    out = np.empty((n, w.d))
    got = 0
    while got < n:
        m = max(int((n - got) / max(unit_ball_volume(w.d) / 2.0 ** w.d, 1e-6)) + 16, 16)
        cand = rng.uniform(-1.0, 1.0, size=(m, w.d))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
        take = min(len(keep), n - got)
        out[got:got + take] = w.center + w.extent * keep[:take]
        got += take
    return out


def sample(spec: ProcessSpec, w: Window, seed) -> np.ndarray:
    """Draw one realization of the process inside the window.

    seed may be an int or a sequence of ints (numpy seed-key style);
    identical seeds give bitwise-identical point sets.
    """
    rng = np.random.default_rng(seed)
    if spec.kind == "explicit":
        return spec.points.copy()
    if spec.kind == "poisson":
        mean = spec.rho * window_volume(w)
        if mean > COUNT_CAP:
            raise ValueError("instance too large")
        n = int(rng.poisson(mean))
        return _uniform_in_window(w, n, rng)
    # jittered lattice: grid nodes inside the window, each displaced
    h, d = spec.spacing, w.d
    lo, hi = w.center - w.extent, w.center + w.extent   # bounding box either way
    axes = [np.arange(np.ceil(lo[i] / h), np.floor(hi[i] / h) + 1) * h for i in range(d)]
    counts = [len(a) for a in axes]
    if np.prod([float(c) for c in counts]) > COUNT_CAP:
        raise ValueError("instance too large")
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[w.contains(grid)]
    if spec.jitter > 0.0:
        grid = grid + rng.uniform(-spec.jitter, spec.jitter, size=grid.shape)
    return grid


def write_points_csv(path, points) -> None:
    """Point set as CSV, one point per line, with a `# d=<d>` header."""
    pts = np.asarray(points, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"# d={pts.shape[1]}\n")
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_points_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# d="):
            raise ValueError("missing `# d=` header")
        d = int(header[4:])
        pts = np.loadtxt(fh, delimiter=",", ndmin=2)
    if pts.size and pts.shape[1] != d:
        raise ValueError("column count does not match header dimension")
    return pts
