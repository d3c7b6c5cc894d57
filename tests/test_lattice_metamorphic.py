"""Exact relations of the coupled matrix-lattice system, checked without reference code.

The list oracle keeps the lattice orbits fixed against a plain copy of
the same algorithm; these relations test what it cannot.  Each holds for
the continuous system and survives the lattice exactly (translation),
to rounding (similarity, linearity in the seed) or within the reported
quadrature gauge (the semigroup law).  An announced sweep,
CoupledProvider.orbit, gives each seed of its block the bytes of apply,
and evaluates no exponential or kernel past its last step.  The exact
lattice of the step-function shift keeps its semigroup law, and that of
its adjoint, with equality.  Every tolerance here is fixed; a change of
the orbit code must keep the module passing unedited.
"""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

import evpos.gammashift as gammashift
import evpos.perturbation as perturbation
import evpos.semigroup as semigroup
from evpos.gammashift import GammaShiftProvider, Grid1D, GridFunction
from evpos.perturbation import (
    CoordinateFunctional,
    CoupledProvider,
    CoupledSystem,
    GridFunctional,
    ProductVector,
    RankOneCoupling,
)
from evpos.presets import coupled_demo_system
from evpos.semigroup import MatrixSemigroup, demo_generator
from evpos.stepfun import PiecewiseConstantFn, ShiftStepProvider, rademacher, walsh

# the steps every orbit relation is read at: the first ones and both
# sides of the power-of-two block edges
STEPS = (1, 2, 3, 8, 16, 31, 32, 33)
# similarity moves the grid component by a factor that is not a power of
# two, so it holds to rounding: measured at most 4.1e-16 relative
SIMILARITY_RTOL = 1e-14
# a f + b g against a S f + b S g, relative to the step's largest entry:
# measured at most 1.4e-15
LINEARITY_RTOL = 1e-14


def random_rank_one_system(seed: int) -> CoupledSystem:
    """A seeded rank-one coupling of a shifted demo matrix and a 48-cell grid.

    Both outputs are nonnegative; the grid output is zero below a random
    support floor, and the window and the read coordinate are drawn too.
    """
    rng = np.random.default_rng(seed)
    grid = Grid1D(x_min=-3.0, h=0.125, count=48)
    A = demo_generator() - 2.0 * np.eye(3) + 0.5 * rng.uniform(0.0, 1.0, (3, 3))
    feed = rng.uniform(0.0, 1.0, grid.count)
    floor = int(rng.integers(grid.count // 2, grid.count - 4))
    feed[:floor] = 0.0
    a = grid.x_min + int(rng.integers(2, 12)) * grid.h
    b = a + int(rng.integers(2, 10)) * grid.h
    return CoupledSystem(
        MatrixSemigroup(A),
        GammaShiftProvider(grid),
        RankOneCoupling(output=rng.uniform(0.0, 1.0, 3), functional=GridFunctional(grid, a, b)),
        RankOneCoupling(
            output=GridFunction(grid, feed, floor),
            functional=CoordinateFunctional(int(rng.integers(0, 3)), 3),
        ),
    )


SYSTEMS = {
    "demo-L4-h0.25": lambda: coupled_demo_system(L=4.0, h=0.25),
    "demo-L6-h0.125": lambda: coupled_demo_system(L=6.0, h=0.125),
    "random-rank-one": lambda: random_rank_one_system(7),
}


@pytest.fixture(params=list(SYSTEMS), ids=list(SYSTEMS))
def system(request) -> CoupledSystem:
    return SYSTEMS[request.param]()


# the relations that hold to rounding also run on two more seeded couplings
ROUNDING_SYSTEMS = {
    **SYSTEMS,
    **{f"random-rank-one-{s}": functools.partial(random_rank_one_system, s) for s in (11, 23)},
}


@pytest.fixture(params=list(ROUNDING_SYSTEMS), ids=list(ROUNDING_SYSTEMS))
def rounding_system(request) -> CoupledSystem:
    return ROUNDING_SYSTEMS[request.param]()


def rebuilt(system: CoupledSystem, shift: int = 0, scale: float = 1.0) -> CoupledSystem:
    """system moved right by shift cells, its grid-bound output times scale, the other over scale.

    The grid origin, the window of the matrix-bound functional and the
    grid-bound output move together, so every cell index stays.
    """
    grid = system.provider2.grid
    d = shift * grid.h
    moved = Grid1D(x_min=grid.x_min + d, h=grid.h, count=grid.count)
    window, feed = system.b12.functional, system.b21.output
    return CoupledSystem(
        system.provider1,
        GammaShiftProvider(moved),
        RankOneCoupling(
            output=system.b12.output / scale,
            functional=GridFunctional(moved, window.a + d, window.b + d),
        ),
        RankOneCoupling(
            output=GridFunction(moved, feed.samples * scale, feed.support_lo),
            functional=system.b21.functional,
        ),
    )


def seeds(system: CoupledSystem) -> list:
    """(matrix part, grid samples): a pure matrix seed and a mixed one with a support floor."""
    count = system.provider2.grid.count
    samples = np.random.default_rng(3).uniform(0.0, 1.0, count)
    samples[: count // 2] = 0.0
    return [(np.array([1.0, 0.5, 2.0]), np.zeros(count)), (np.ones(3), samples)]


def orbit_bytes(value: ProductVector) -> tuple:
    return value.first.tobytes(), value.second.samples.tobytes(), value.second.support_lo


@pytest.mark.parametrize("shift", [1, 8, -5])
def test_grid_translation_keeps_every_byte(system, shift):
    moved = rebuilt(system, shift=shift)
    here, there = CoupledProvider(system), CoupledProvider(moved)
    grid, moved_grid = system.provider2.grid, moved.provider2.grid
    for z, samples in seeds(system):
        for q in STEPS:
            t = q * grid.h
            want = here.apply(t, ProductVector(z, GridFunction(grid, samples)))
            got = there.apply(t, ProductVector(z, GridFunction(moved_grid, samples)))
            assert orbit_bytes(got) == orbit_bytes(want)


@pytest.mark.parametrize("c", [1e3, 1e-3], ids=["c=1e3", "c=1e-3"])
def test_similarity_scales_the_grid_component(rounding_system, c):
    # diag(1, c) conjugates the generator into the one whose b21 output
    # is times c and b12 output over c: the orbit of (z, c g) is the
    # orbit of (z, g) with its grid component times c
    system = rounding_system
    scaled = rebuilt(system, scale=c)
    here, there = CoupledProvider(system), CoupledProvider(scaled)
    grid = system.provider2.grid
    for z, samples in seeds(system):
        for q in STEPS:
            t = q * grid.h
            want = here.apply(t, ProductVector(z, GridFunction(grid, samples)))
            got = there.apply(t, ProductVector(z, GridFunction(grid, samples * c)))
            assert got.second.support_lo == want.second.support_lo
            first_err = np.max(np.abs(got.first - want.first))
            assert first_err <= SIMILARITY_RTOL * np.max(np.abs(want.first))
            grid_want = c * want.second.samples
            grid_err = np.max(np.abs(got.second.samples - grid_want))
            assert grid_err <= SIMILARITY_RTOL * np.max(np.abs(grid_want))


@pytest.mark.parametrize("q", [4, 8, 16])
def test_the_reported_gauge_bounds_the_semigroup_law(system, q):
    # S(2 q h) f against S(q h) S(q h) f: the lattice keeps the law only
    # up to its quadrature error, and the gauge series_report reports
    # for those evaluations must bound the defect (it does by a factor
    # of 200 or more on these systems)
    grid = system.provider2.grid
    for z, samples in seeds(system):
        provider = CoupledProvider(system)
        f = ProductVector(z, GridFunction(grid, samples))
        twice = provider.apply(q * grid.h, provider.apply(q * grid.h, f))
        once = provider.apply(2 * q * grid.h, f)
        defect = provider.vec_norm(once - twice)
        assert 0.0 < defect <= provider.series_report()["quadrature_estimate"]


def seed_block(system: CoupledSystem) -> list:
    """[f, g, u]: the two seeds of seeds() and u = 0.75 f - 1.5 g."""
    grid = system.provider2.grid
    f, g = (ProductVector(z, GridFunction(grid, samples)) for z, samples in seeds(system))
    return [f, g, f * 0.75 + g * -1.5]


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2)], ids=["f-g-u", "g-f-u"])
def test_every_row_of_a_sweep_is_the_apply_of_its_seed(system, order):
    # the block g, f, u puts a seed with a zero grid component between
    # two that have one
    block = [seed_block(system)[i] for i in order]
    sweeper, applier = CoupledProvider(system), CoupledProvider(system)
    h = system.provider2.grid.h
    for q, (values, _, floors) in enumerate(sweeper.orbit(block, max(STEPS)), 1):
        assert values.shape == (3, applier.carrier_dim) and floors.shape == (3, 2)
        for row, row_floors, seed in zip(values, floors, block):
            want = applier.apply(q * h, seed)
            assert row.tobytes() == applier.stack(want).tobytes()
            assert row_floors[1] == want.second.support_lo


def test_a_sweep_is_linear_in_its_seed(rounding_system):
    a, b = 0.75, -1.5
    block = seed_block(rounding_system)
    for values, _, _ in CoupledProvider(rounding_system).orbit(block, max(STEPS)):
        err = np.max(np.abs(values[2] - (a * values[0] + b * values[1])))
        assert err <= LINEARITY_RTOL * np.max(np.abs(values))


def count_work(monkeypatch) -> tuple:
    """(kernel times, expm times): one list per gamma_kernel_weights or expm call."""
    kernels, exps = [], []
    weights, expm = gammashift.gamma_kernel_weights, semigroup.expm
    monkeypatch.setattr(
        gammashift,
        "gamma_kernel_weights",
        lambda *a: kernels.append(np.atleast_1d(a[0]).tolist()) or weights(*a),
    )
    monkeypatch.setattr(
        semigroup, "expm", lambda A, t=1.0: exps.append(np.atleast_1d(t).tolist()) or expm(A, t)
    )
    return kernels, exps


def test_a_sweep_evaluates_nothing_past_its_end(system, monkeypatch):
    # on a fresh system a sweep to 20 takes one exponential stack at the
    # steps 0..20 and one kernel call at 1..20; on an engine that apply
    # calls filled to step 31 in doubling blocks, a sweep to 20 takes
    # nothing new and one to 40 the steps 32..40 alone
    perturbation._ENGINES.clear()
    h = system.provider2.grid.h
    steps = lambda lo, hi: [m * h for m in range(lo, hi + 1)]  # noqa: E731
    kernels, exps = count_work(monkeypatch)
    provider = CoupledProvider(system)
    for _ in provider.orbit(seed_block(system), 20):
        pass
    assert exps == [steps(0, 20)] and kernels == [steps(1, 20)]

    perturbation._ENGINES.clear()
    provider = CoupledProvider(system)
    f, g, u = seed_block(system)
    for q in range(1, 17):
        provider.apply(q * h, u)
    del kernels[:], exps[:]
    for _ in provider.orbit([f, g], 20):
        pass
    assert exps == [] and kernels == []
    for _ in provider.orbit([f, g], 40):
        pass
    assert exps == [steps(32, 40)] and kernels == [steps(32, 40)]


# (s, t) with s + t below, at and past the nilpotent time 1
DYADIC_PAIRS = [
    (Fraction(0), Fraction(5, 8)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(3, 8), Fraction(5, 16)),
    (Fraction(1, 1024), Fraction(255, 256)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(7, 8), Fraction(3, 4)),
    (Fraction(1), Fraction(1, 64)),
]


def random_step_functions(seed: int, count: int = 4) -> list:
    """Seeded sums of rational multiples of walsh-rademacher products."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f = PiecewiseConstantFn.zero()
        for _ in range(rng.randint(1, 3)):
            wave = walsh(rng.randrange(64)).product(rademacher(rng.randint(1, 9)))
            f = f + wave.scale(Fraction(rng.randint(-7, 7), rng.randint(1, 6)))
        out.append(f)
    return out


def random_dyadic_pairs(seed: int, count: int = 6) -> list:
    """Seeded (s, t) in [0, 1]^2 on a common dyadic lattice of 2 .. 1024 cells."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        cells = 1 << rng.randint(1, 10)
        pairs.append(tuple(Fraction(rng.randrange(cells + 1), cells) for _ in "st"))
    return pairs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_shift_laws_hold_exactly(seed):
    # S(s) S(t) f = S(s + t) f, the zero function once s + t >= 1, and
    # the same for the right shift S(t)'; <phi, S(t) f> = <S(t)' phi, f>
    provider = ShiftStepProvider(depth=10)
    funcs = random_step_functions(seed)
    zero = PiecewiseConstantFn.zero()
    for s, t in DYADIC_PAIRS + random_dyadic_pairs(seed):
        for f, phi in zip(funcs, funcs[1:] + funcs[:1]):
            law = provider.apply(s, provider.apply(t, f))
            assert law == provider.apply(s + t, f)
            adjoint = provider.apply_adjoint(s, provider.apply_adjoint(t, phi))
            assert adjoint == provider.apply_adjoint(s + t, phi)
            if s + t >= 1:
                assert law == zero and adjoint == zero
            pairing = provider.pair(phi, provider.apply(t, f))
            assert pairing == provider.pair(provider.apply_adjoint(t, phi), f)
