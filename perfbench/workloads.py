"""The benchmark's workloads: seeded inputs, one request, and its check.

Each workload drives ``freepoisson`` only through its public API or its
command line.  ``next_input`` builds the next request's input outside the
timed region, ``request`` is the timed call, and ``check`` compares the
result with closed-form potentials and returns the relative max-norm error
(or raises ``CheckFailed``).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import freepoisson as fp

# Relative max-norm error bounds of the checks.  Each sits far above the
# error measured today and far below the ~1e-3 a 2nd order harmonic phase
# gives; README.md gives the numbers behind each choice.
ONESHOT3D_MAX_ERR = 1e-8
STEPS3D_MAX_ERR = 1e-4
PLANE2D_MAX_ERR = 1e-9

COMMAND_TIMEOUT_S = 150
CLI_CENTER = (1.0 / math.sqrt(31.0), 0.2, 0.1)


class CheckFailed(Exception):
    """A request returned an output that violates its check."""


def relative_error(phi: np.ndarray, exact: np.ndarray) -> float:
    return float(np.max(np.abs(phi - exact)) / np.max(np.abs(exact)))


def _check(err: float, bound: float) -> float:
    if not err <= bound:
        raise CheckFailed(f"relative error {err:.3e} exceeds {bound:.0e}")
    return err


class OneShot3D:
    """One-off M=96, order 6 solves of the CLI's default bump, one thread.

    Every request perturbs all six axis extents by a fresh draw in
    [-0.01, 0.01], so mesh widths and aspect ratio never repeat within a run
    and no grid- or scale-keyed cache can hit; the panel counts stay fixed.
    """

    name = "oneshot3d"
    panels = 96
    nodes = (panels + 1) ** 3

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.rng = np.random.default_rng(seed)
        self.bump = fp.PolyBump(3, 0.4, 7, CLI_CENTER)
        self.config = fp.SolverConfig(order=6, thread_count=1)

    def next_input(self) -> fp.UniformGrid:
        delta = self.rng.uniform(-0.01, 0.01, 6)
        return fp.UniformGrid(-1.0 + delta[:3], 1.0 + delta[3:], [self.panels] * 3)

    def memory_inputs(self):
        return [self.next_input()]

    def request(self, grid: fp.UniformGrid) -> np.ndarray:
        phi, _ = fp.solve_free_space(self.bump, grid, self.config)
        return phi.values

    def check(self, grid: fp.UniformGrid, phi: np.ndarray) -> float:
        x, y, z = grid.coordinate_arrays()
        cx, cy, cz = self.bump.center
        r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2)
        # Outside the support the potential is that of a unit point mass,
        # computed here; inside, the bump's rational-arithmetic expansion.
        outside = r >= self.bump.epsilon
        point_mass = -1.0 / (4.0 * math.pi * np.where(outside, r, 1.0))
        exact = np.where(outside, point_mass, self.bump.potential(x, y, z))
        return _check(relative_error(phi, exact), ONESHOT3D_MAX_ERR)


class Steps3D:
    """Time stepping on one fixed M=48 grid, order 4, padded to 54^3.

    Six p=5 bumps of radius 0.3 sit at the vertices of an octahedron of
    circumradius 0.45 that turns about a fixed tilted axis by 1/48 of a turn
    per step, so every bump moves on a circle; the seed sets the starting
    orientation.  A run of at least 48 steps visits the same 48 orientations
    on every seed (inputs repeat after 48 steps), so its work, its largest
    error and its peak memory do not depend on the seed: the error varies by
    a factor of two with the orientation.  The supports stay more than three
    panels inside the user grid.
    """

    name = "steps3d"
    panels = 48
    nodes = (panels + 1) ** 3
    epsilon = 0.3
    radius = 0.45
    orientations = 48
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    vertices = np.vstack([np.eye(3), -np.eye(3)])

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.grid = fp.UniformGrid([-1.0] * 3, [1.0] * 3, [self.panels] * 3)
        self.config = fp.SolverConfig(
            order=4, padding_panels=2, fft_friendly_expansion=True, thread_count=1
        )
        self.step = int(np.random.default_rng(seed).integers(self.orientations))

    def bumps(self, step: int) -> list[fp.PolyBump]:
        angle = 2.0 * math.pi * (step % self.orientations) / self.orientations
        a = self.axis
        cross = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        rotation = (math.cos(angle) * np.eye(3) + math.sin(angle) * cross
                    + (1.0 - math.cos(angle)) * np.outer(a, a))
        centres = self.radius * self.vertices @ rotation.T
        return [fp.PolyBump(3, self.epsilon, 5, tuple(c)) for c in centres]

    def input_at(self, step: int):
        bumps = self.bumps(step)
        coords = self.grid.coordinate_arrays()
        rho = fp.GridFunction(self.grid, sum(b.density(*coords) for b in bumps))
        return rho, bumps

    def next_input(self):
        self.step += 1
        return self.input_at(self.step - 1)

    def memory_inputs(self):
        """Four orientations a quarter turn apart, the same on every seed."""
        return [self.input_at(k * self.orientations // 4) for k in range(4)]

    def request(self, inp) -> np.ndarray:
        phi, _ = fp.solve_free_space(inp[0], None, self.config)
        return phi.values

    def check(self, inp, phi: np.ndarray) -> float:
        coords = self.grid.coordinate_arrays()
        exact = sum(b.potential(*coords) for b in inp[1])  # superposition
        return _check(relative_error(phi, exact), STEPS3D_MAX_ERR)


def python_env(root: Path, extra: dict | None = None) -> dict:
    """Environment for a child interpreter that imports the checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra or {})
    return env


class Plane2DCLI:
    """Fresh ``python -m freepoisson solve`` commands on one 2D M=1024 file.

    The grid is [-1, 1] x [-3, 3] with 1024 panels per axis, so its mesh
    widths differ by a factor of three.  The density, five p=7 bumps of
    radius 0.1 centred on a regular pentagon of circumradius 0.85 turned by
    0.1 rad, is written once as a text PGRID file before timing.  The
    nearest centre sits 0.15 from the boundary.  On a square mesh the
    compact operator is already 6th order accurate for harmonic data, and
    wide bumps leave only roundoff error; here an order-6 solve's error is
    discretisation error, and an order-4 harmonic phase gives a 20x larger
    one (README.md has the figures).  The seed picks one of the four mirror
    images (x to -x, y to -y) of the constellation; the grid is symmetric to
    the last bit, so the work and the accuracy are the same on every seed.
    Every command's output file is re-read and compared with the closed
    forms and, bit for bit, with an in-process one-thread solve of the same
    density.
    """

    name = "plane2d_cli"
    panels = 1024
    nodes = (panels + 1) ** 2
    n_bumps = 5
    epsilon = 0.1
    radius = 0.85
    turn = 0.1
    threads = 2

    def __init__(self, seed: int, workdir: Path, root: Path):
        mirror = 1.0 - 2.0 * np.random.default_rng(seed).integers(0, 2, size=2)
        self.root = root
        self.grid = fp.UniformGrid([-1.0, -3.0], [1.0, 3.0], [self.panels] * 2)
        angles = self.turn + 2.0 * math.pi * np.arange(self.n_bumps) / self.n_bumps
        self.bumps = [
            fp.PolyBump(2, self.epsilon, 7,
                        tuple(mirror * self.radius * np.array([math.cos(a), math.sin(a)])))
            for a in angles
        ]
        self.rho_path = workdir / "rho.pgrid"
        self.out_path = workdir / "phi.pgrid"
        self.err_path = workdir / "command.err"
        coords = self.grid.coordinate_arrays()
        self.rho = fp.GridFunction(self.grid, sum(b.density(*coords) for b in self.bumps))
        fp.write_pgrid(self.rho_path, self.rho)
        self.exact = sum(b.potential(*coords) for b in self.bumps)
        self.reference = None

    def argv(self, out_path: Path | None = None) -> list[str]:
        return [
            "solve", "--rho-file", str(self.rho_path), "--order", "6",
            "--threads", str(self.threads), "--out", str(out_path or self.out_path),
            "--format", "pgrid",
        ]

    def reference_values(self) -> np.ndarray:
        """Untimed in-process solve with one thread, computed once."""
        if self.reference is None:
            config = fp.SolverConfig(order=6, thread_count=1)
            self.reference = fp.solve_free_space(self.rho, None, config)[0].values
        return self.reference

    def next_input(self):
        if self.out_path.exists():
            self.out_path.unlink()
        return None

    def request(self, inp) -> int:
        """Run one command; returns its exit status."""
        cmd = [sys.executable, "-m", "freepoisson", *self.argv()]
        with open(self.err_path, "wb") as err:
            return subprocess.run(cmd, env=python_env(self.root), stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=COMMAND_TIMEOUT_S).returncode

    def check(self, inp, returncode) -> float:
        if returncode != 0:
            tail = self.err_path.read_text(errors="replace")[-500:]
            raise CheckFailed(f"command exited with status {returncode}: {tail}")
        try:
            phi = fp.read_pgrid(self.out_path)
        except (OSError, ValueError) as exc:  # missing or truncated output
            raise CheckFailed(f"cannot read the command's output: {exc}") from exc
        if phi.grid != self.grid:
            raise CheckFailed("output grid differs from the density's grid")
        if not np.array_equal(phi.values, self.reference_values()):
            raise CheckFailed("output differs from the one-thread in-process solve")
        return _check(relative_error(phi.values, self.exact), PLANE2D_MAX_ERR)


WORKLOADS = {w.name: w for w in (OneShot3D, Steps3D, Plane2DCLI)}
