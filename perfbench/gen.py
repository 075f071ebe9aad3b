"""Seeded inputs for the benchmark workloads.

Every generated problem is written as a JSON config file; the program only
ever sees those files (or, for `examples`, the shipped `configs/ex*.json`).
The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("examples", "fine_grid", "library_spectral")

# The example problems' constants; library sessions draw within one decade.
K0, NU0, L0 = 0.25, 0.5, 1.0
FINE_GRID = 1000  # M = K for the fine_grid configs
SESSION_MODES = 1024  # n_max of library sessions and of `heatrobin eigen -n`
SESSIONS_PER_CYCLE = 8  # distinct seeded sessions, alternating Robin kinds
PROBES = 12  # untimed problems per probe set and library_spectral run
MAX_DEGREE = 8


@dataclass(frozen=True)
class Op:
    """One timed operation. `key` names it within the cycle; repeats of the
    same key must produce identical outputs."""

    key: str
    kind: str  # "solve" | "verify" | "session" | "probe"
    config: Path
    rod: Path | None = None


def _write(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _decade(rng: random.Random, centre: float) -> float:
    return _log_uniform(rng, centre / 10.0, centre * 10.0)


def _coeffs(rng: random.Random, degree: int) -> list[float]:
    return [round(rng.uniform(-2.0, 2.0), 6) for _ in range(degree + 1)]


def random_problem(rng: random.Random, boundary: str, k: float, nu: float, l: float) -> dict:
    """A Robin problem with polynomial data of degree 0..8 in each variable.

    The source keeps only the x powers the boundary kind admits (even for
    neumann_robin, odd for dirichlet_robin). Its rows are written with equal
    length: ragged rows are rejected with numpy's raw shape message (a known
    defect, see README.md)."""
    want = 0 if boundary == "neumann_robin" else 1
    x_deg = rng.randint(0, MAX_DEGREE)
    t_deg = rng.randint(0, MAX_DEGREE)
    rows = [_coeffs(rng, t_deg) if i % 2 == want else [0.0] * (t_deg + 1) for i in range(x_deg + 1)]
    return {
        "k": k,
        "nu": nu,
        "l": l,
        "T": 1.0,
        "boundary": boundary,
        "mu0": _coeffs(rng, rng.randint(0, MAX_DEGREE)),
        "F": rows,
        "T0": _coeffs(rng, rng.randint(0, MAX_DEGREE)),
        "series": {"n_max": SESSION_MODES},
    }


def fine_dirichlet_config(rng: random.Random) -> dict:
    """Corner-compatible dirichlet_robin problem with an odd source.

    Odd initial data vanishes at x = 0, and T0(0) is chosen so the Robin
    corner defect k*mu0'(l) + nu*(mu0(l) - T0(0)) is exactly zero (the small
    integer coefficients and k/nu = 1/2 keep the arithmetic exact)."""
    a1, a3 = rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2)
    mu0 = [0, a1, 0, a3]
    mu0_l = a1 + a3
    dmu0_l = a1 + 3 * a3
    t0_0 = mu0_l + (K0 / NU0) * dmu0_l
    return {
        "k": K0,
        "nu": NU0,
        "l": L0,
        "T": 1.0,
        "boundary": "dirichlet_robin",
        "mu0": mu0,
        "F": [[0, 0], [rng.randint(-3, 3), rng.randint(-3, 3)], [0, 0], [rng.randint(-2, 2), 0]],
        "T0": [t0_0, rng.randint(-3, 3), rng.randint(-2, 2)],
        "grid": {"M": FINE_GRID, "K": FINE_GRID},
    }


def rod_problem(rng: random.Random) -> dict:
    """Insulated-rod data for two_forms_check: quartic f and mu0 in x, with
    the acceptance suite's k (the quadrature's cost depends on k alone)."""
    return {"k": K0, "f": _coeffs(rng, 4), "mu0": _coeffs(rng, 4)}


def cycle_ops(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """The ops of one cycle of `workload`, in the order the loop runs them."""
    rng = random.Random(f"{workload}:{seed}")
    cfg = workdir / "configs"
    if workload == "examples":
        return [
            Op(f"{cmd}:{name}", cmd, root / "configs" / f"{name}.json")
            for name in ("ex1", "ex2", "ex3")
            for cmd in ("solve", "verify")
        ]
    if workload == "fine_grid":
        ex3 = json.loads((root / "configs" / "ex3.json").read_text())
        ex3["grid"] = {"M": FINE_GRID, "K": FINE_GRID}
        paths = {
            "ex3": _write(cfg / "fine_ex3.json", ex3),
            "dr": _write(cfg / "fine_dr.json", fine_dirichlet_config(rng)),
        }
        return [Op(f"{cmd}:{name}", cmd, p) for name, p in paths.items() for cmd in ("solve", "verify")]
    if workload == "library_spectral":
        ops = []
        for i in range(SESSIONS_PER_CYCLE):
            boundary = "neumann_robin" if i % 2 == 0 else "dirichlet_robin"
            # l stays at or below the examples' l = 1: above it, degree-8 data
            # trips the matching system's degeneracy test (see probe_ops).
            k, nu, l = _decade(rng, K0), _decade(rng, NU0), _log_uniform(rng, L0 / 10.0, L0)
            problem = _write(cfg / f"session{i}.json", random_problem(rng, boundary, k, nu, l))
            rod = _write(cfg / f"rod{i}.json", rod_problem(rng))
            ops.append(Op(f"session:{i}", "session", problem, rod))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def probe_ops(seed: int, workdir: Path) -> list[Op]:
    """Untimed robustness problems, two seeded sets of PROBES each:
    `wide` draws k, nu and l log-uniform over 1e-6..1e6; `decade` draws them
    within one decade of the examples, l included (up to 10)."""
    rng = random.Random(f"probe:{seed}")
    ranges = {
        "wide": lambda: [_log_uniform(rng, 1e-6, 1e6) for _ in range(3)],
        "decade": lambda: [_decade(rng, c) for c in (K0, NU0, L0)],
    }
    ops = []
    for name, draw in ranges.items():
        for i in range(PROBES):
            boundary = "neumann_robin" if i % 2 == 0 else "dirichlet_robin"
            problem = random_problem(rng, boundary, *draw())
            path = _write(workdir / "configs" / f"probe_{name}{i}.json", problem)
            ops.append(Op(f"probe:{name}:{i}", "probe", path))
    return ops


def session_lattice(l: float, T: float) -> list[tuple[float, float]]:
    """Fixed 17 x 12 lattice of (x, t) points for point evaluation; the first
    five times lie below the default t_min, where the truncated sum needs
    many of the 1024 stored terms."""
    xs = [l * i / 16 for i in range(17)]
    fracs = (1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0)
    return [(x, T * f) for f in fracs for x in xs]


def sample_rows(n_rows: int, first_row: int, seed: int, key: str, count: int = 64) -> list[int]:
    """Seeded sample of data-row indices in [first_row, n_rows)."""
    rng = random.Random(f"rows:{seed}:{key}")
    pool = range(first_row, n_rows)
    return sorted(rng.sample(pool, min(count, len(pool))))

